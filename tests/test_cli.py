import io
import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibounds import bounds, cli
from bibounds.bounds import BoundReport, Discrepancy
from bibounds.classes import ClassSpec, SchlichtCoeffs, functional, rational
from bibounds.harness import MAX_SAMPLES, CheckResult
from oracles import generic_reference

GOLDEN = Path(__file__).parent / "golden"

PINNED = {
    "bound.json": ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0",
                   "--phi", "caratheodory", "--psi", "caratheodory"],
    "audit.json": ["audit", "--theorem", "LL", "--grid", "0:1:0.5",
                   "--phi", "caratheodory", "--psi", "caratheodory"],
    "sweep.json": ["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0",
                   "--phi", "caratheodory", "--psi", "caratheodory", "--what", "a2"],
    # The fine grid with a skewed psi: the a3 maximum needs c1 at modulus 2.
    "sweep_a3_fine_skewed.json": ["sweep", "--pair", "PL", "--alpha", "1/3",
                                  "--beta", "1/2", "--phi", "caratheodory",
                                  "--psi-coeffs", "2,1", "--what", "a3",
                                  "--radial-steps", "17", "--phase-steps", "32"],
    "expand.json": ["expand", "--class", "M", "--alpha", "1",
                    "--a2", "0.5", "--a3", "0.25"],
    "verify.json": ["verify", "--suite", "identities", "--mode", "exact",
                    "--seed", "7", "--samples", "10"],
    # Every exact suite: bounds, solver, classes and series as well.
    "verify_exact_all.json": ["verify", "--suite", "all", "--mode", "exact",
                              "--seed", "3", "--samples", "4"],
    "table.json": ["table"],
    # Skewed psi: six PM display-variant notes; LL sigma and a3 discrepancies.
    "audit_pm_skewed.json": ["audit", "--theorem", "PM", "--grid", "0:1:1/2",
                             "--phi", "caratheodory", "--psi-coeffs", "2,1"],
    "audit_ll_skewed.json": ["audit", "--theorem", "LL", "--grid", "0:1:1/2",
                             "--phi", "caratheodory", "--psi-coeffs", "2,1"],
    # Thirds on both axes; both brackets vanish at (0, 0), a degenerate row.
    "audit_pp_thirds_degenerate.json": ["audit", "--theorem", "PP", "--grid", "0:1:1/3",
                                        "--phi-coeffs", "1,2", "--psi-coeffs", "1,2"],
    # A tolerance of 0.5 keeps 11 of the 41 LL discrepancy rows.
    "audit_ll_tolerance.csv": ["audit", "--theorem", "LL", "--grid", "0:1:1/4",
                               "--phi", "caratheodory", "--psi-coeffs", "2,1",
                               "--tolerance", "0.5", "--format", "csv"],
}


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


# The audit-grid benchmark's argv shapes at full size (an 11 x 11 grid), in
# every format: sha256 of repr((exit code, stdout, stderr)).
AUDIT_GRID_TARGETS = {
    "equal": ["--phi", "caratheodory", "--psi", "caratheodory"],
    "skewed": ["--phi", "caratheodory", "--psi-coeffs", "2,1"],
}
AUDIT_GRID_DIGESTS = {
    ("PP", "equal", "json"): "de3b1d13de95faa8f0b4d287af471a97d869acdc3974079427939cff210b2a37",
    ("PP", "equal", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("PP", "equal", "pretty"): "b74f46f5213ee7bec6e63b9c707db071c24a855e4057d28bf8cff4cfd265116a",
    ("PP", "skewed", "json"): "fdd669b0d3b24bd00a2f1fe7d8f3cd04f22999aa2e3cb9d5bb16d7194debbc9f",
    ("PP", "skewed", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("PP", "skewed", "pretty"): "b74f46f5213ee7bec6e63b9c707db071c24a855e4057d28bf8cff4cfd265116a",
    ("PM", "equal", "json"): "f7722f46033f0173517a803cf5da284fb2b529c0753a550093c4f316406fa9be",
    ("PM", "equal", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("PM", "equal", "pretty"): "752610ce9ac66d8fc85325ded648ba0af82389850e08f67d9d4f1260a27cce1c",
    ("PM", "skewed", "json"): "819e6771f2c2dde165678b6598ee61e94a66d49597ff41a2ccd71395aa4d2f70",
    ("PM", "skewed", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("PM", "skewed", "pretty"): "752610ce9ac66d8fc85325ded648ba0af82389850e08f67d9d4f1260a27cce1c",
    ("PL", "equal", "json"): "194ac3b008ee4c5cabe1f62614e5c47f3fc00b9491b7e7ae74a5613f820c9088",
    ("PL", "equal", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("PL", "equal", "pretty"): "f323eabfa52a6c67f22fc98d8463c0ca305db869a5dda4f52169b072bb584a7a",
    ("PL", "skewed", "json"): "3117686ce23ee7c909eb84c5ea011a90b0f2b990d84acf13f7b9f5b26f60d42f",
    ("PL", "skewed", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("PL", "skewed", "pretty"): "f323eabfa52a6c67f22fc98d8463c0ca305db869a5dda4f52169b072bb584a7a",
    ("MM", "equal", "json"): "7db85cd0acf72a997d500043feb205fc28aa7704a2515ae4d17b2530cdfb97c8",
    ("MM", "equal", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("MM", "equal", "pretty"): "4a2e2c2214b0c4347bc62d2333561af2c81e3e8cdf16b868a76201c3e08cb10d",
    ("MM", "skewed", "json"): "69ba571bb343bca73a6d612f7d9aada02317bc4444dceadd3ebbd47e7efc0a5c",
    ("MM", "skewed", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("MM", "skewed", "pretty"): "4a2e2c2214b0c4347bc62d2333561af2c81e3e8cdf16b868a76201c3e08cb10d",
    ("ML", "equal", "json"): "ebc0b1fab03a9876281abd0576de0e49a137a0632e068352a8c3524ace84703c",
    ("ML", "equal", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("ML", "equal", "pretty"): "7b6e67ef14f067df77853fc9f05644ab72d9beea63441e0b62382a4ce6d65acc",
    ("ML", "skewed", "json"): "dc882f30b7da77dde7d9aa29ad102414a6f454168d971f5f56cfe319ee0b13cf",
    ("ML", "skewed", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("ML", "skewed", "pretty"): "7b6e67ef14f067df77853fc9f05644ab72d9beea63441e0b62382a4ce6d65acc",
    ("LL", "equal", "json"): "8705f1320d98a69926a90f0d799f5771f2ddef795f5d1b7833afded039e1f6d7",
    ("LL", "equal", "csv"): "f13f79ac50552adbca132bac648e35dfd6477c472623c76f4448cbf56be19fa7",
    ("LL", "equal", "pretty"): "5428dd3c0c108d9159dafff9a4a00d46af862b545f6da7a19f0ba48e6fa844eb",
    ("LL", "skewed", "json"): "3b7370a8c306164bfa7884d5b63ca3f4cdae8706f58faa9094702d1317944e7c",
    ("LL", "skewed", "csv"): "b0c86e38254782640ad58340429e9057e4effa5e66c915f13c5629ba2e121b71",
    ("LL", "skewed", "pretty"): "c62ac9838215a2c293063c7884a670095840044bc9e6dd51b22b87ab6e8004b4",
}


# The sweep-float benchmark's argv shapes at (alpha, beta) = (1/3, 1/2): each
# pairing, quantity and grid, with equal and skewed targets, in every format;
# sha256 of repr((exit code, stdout, stderr)).
SWEEP_TARGETS = {
    "caratheodory": ["--phi", "caratheodory", "--psi", "caratheodory"],
    "order:1/3": ["--phi", "order:1/3", "--psi", "order:1/3"],
    "skewed": ["--phi", "caratheodory", "--psi-coeffs", "2,1"],
}
SWEEP_GRIDS = {"default": [], "fine": ["--radial-steps", "17", "--phase-steps", "32"]}
SWEEP_DIGESTS = {
    ("PP", "a2", "default", "caratheodory", "json"): "814886f6b1f1bb0d87dc6ef6de61202d80525a3df1987db9cb042ac0f62cb1ce",
    ("PP", "a2", "default", "caratheodory", "csv"): "20939d3a2e61c79948b3a3de3df5973e6bfed4d0471f522f3149dc1b574136fb",
    ("PP", "a2", "default", "caratheodory", "pretty"): "a55d81e8eb45549c48a44cd61283da9b2d29352dcd86e71e893b0404b7eb032a",
    ("PP", "a2", "default", "order:1/3", "json"): "2e4af3e38468078c1ea74d8538b73d375fa8cf6b04eddf6a7c399a813842cfed",
    ("PP", "a2", "default", "order:1/3", "csv"): "7f8886d50ec77513c34287787e24abc1df0e48b2aaba68d6c80ae95b166576d9",
    ("PP", "a2", "default", "order:1/3", "pretty"): "a3748597af62d3b0d4ed95abc9e563519b32ec66402a1ced158f85c12ef40d74",
    ("PP", "a2", "default", "skewed", "json"): "4ba7e643418cb0d64fb9140be18943bb783f9e3895136be97cfbe992f090c5bf",
    ("PP", "a2", "default", "skewed", "csv"): "d439d82584823a9be4b19767b94ca9a93a5022aa9f996dc5cd457acb1586e0ea",
    ("PP", "a2", "default", "skewed", "pretty"): "54cb604b791bf36586cdb2fec00e24056b01576f384613642eb2aac568abb40b",
    ("PP", "a2", "fine", "caratheodory", "json"): "814886f6b1f1bb0d87dc6ef6de61202d80525a3df1987db9cb042ac0f62cb1ce",
    ("PP", "a2", "fine", "caratheodory", "csv"): "20939d3a2e61c79948b3a3de3df5973e6bfed4d0471f522f3149dc1b574136fb",
    ("PP", "a2", "fine", "caratheodory", "pretty"): "a55d81e8eb45549c48a44cd61283da9b2d29352dcd86e71e893b0404b7eb032a",
    ("PP", "a2", "fine", "order:1/3", "json"): "2e4af3e38468078c1ea74d8538b73d375fa8cf6b04eddf6a7c399a813842cfed",
    ("PP", "a2", "fine", "order:1/3", "csv"): "7f8886d50ec77513c34287787e24abc1df0e48b2aaba68d6c80ae95b166576d9",
    ("PP", "a2", "fine", "order:1/3", "pretty"): "a3748597af62d3b0d4ed95abc9e563519b32ec66402a1ced158f85c12ef40d74",
    ("PP", "a2", "fine", "skewed", "json"): "4ba7e643418cb0d64fb9140be18943bb783f9e3895136be97cfbe992f090c5bf",
    ("PP", "a2", "fine", "skewed", "csv"): "d439d82584823a9be4b19767b94ca9a93a5022aa9f996dc5cd457acb1586e0ea",
    ("PP", "a2", "fine", "skewed", "pretty"): "54cb604b791bf36586cdb2fec00e24056b01576f384613642eb2aac568abb40b",
    ("PP", "a3", "default", "caratheodory", "json"): "9a1ce75ae39a968c19173f57535dc0716461636678b2a5898bc98e24c830de1a",
    ("PP", "a3", "default", "caratheodory", "csv"): "5406b3e25b658256806f7dd427513e240a80ac0cf4e0657d97be167e714300bc",
    ("PP", "a3", "default", "caratheodory", "pretty"): "9d38cf0dc226ba5ebde0e9ca4c6cd5e330c9a1ec667ddbb615e39baed44ef0bb",
    ("PP", "a3", "default", "order:1/3", "json"): "e739a2081fa8cc9904af371e29845238d7aa21f390700b93c2e86ccb80adce39",
    ("PP", "a3", "default", "order:1/3", "csv"): "7ff65c85e26f47e7a3a900dfce0b1b97fbb35d46d1d1a3d247c1e1ff732efb08",
    ("PP", "a3", "default", "order:1/3", "pretty"): "4abb049a77557ef67606fe3d45c7f3bb771d2b30b219810b181322ad18a1d968",
    ("PP", "a3", "default", "skewed", "json"): "e33aadf27949e5389f65ac9e7ee52e3ffe0d0ff68ea0b3b3a599fdfe830bfb0d",
    ("PP", "a3", "default", "skewed", "csv"): "7ca4e62aa236729201941f9bf1ccfe9e8d0aa6557c86e48b0b0410c56fa091d2",
    ("PP", "a3", "default", "skewed", "pretty"): "7f0202873e8d0c5f3b9554707bb7ab33a2ea36ac9f90e5a0f532bb55fa3d53ac",
    ("PP", "a3", "fine", "caratheodory", "json"): "9a1ce75ae39a968c19173f57535dc0716461636678b2a5898bc98e24c830de1a",
    ("PP", "a3", "fine", "caratheodory", "csv"): "5406b3e25b658256806f7dd427513e240a80ac0cf4e0657d97be167e714300bc",
    ("PP", "a3", "fine", "caratheodory", "pretty"): "9d38cf0dc226ba5ebde0e9ca4c6cd5e330c9a1ec667ddbb615e39baed44ef0bb",
    ("PP", "a3", "fine", "order:1/3", "json"): "e739a2081fa8cc9904af371e29845238d7aa21f390700b93c2e86ccb80adce39",
    ("PP", "a3", "fine", "order:1/3", "csv"): "7ff65c85e26f47e7a3a900dfce0b1b97fbb35d46d1d1a3d247c1e1ff732efb08",
    ("PP", "a3", "fine", "order:1/3", "pretty"): "4abb049a77557ef67606fe3d45c7f3bb771d2b30b219810b181322ad18a1d968",
    ("PP", "a3", "fine", "skewed", "json"): "e33aadf27949e5389f65ac9e7ee52e3ffe0d0ff68ea0b3b3a599fdfe830bfb0d",
    ("PP", "a3", "fine", "skewed", "csv"): "7ca4e62aa236729201941f9bf1ccfe9e8d0aa6557c86e48b0b0410c56fa091d2",
    ("PP", "a3", "fine", "skewed", "pretty"): "7f0202873e8d0c5f3b9554707bb7ab33a2ea36ac9f90e5a0f532bb55fa3d53ac",
    ("PM", "a2", "default", "caratheodory", "json"): "624b33ef4f521bb361258f232c91f26202a6f1710597ba33aaae0a9df9828404",
    ("PM", "a2", "default", "caratheodory", "csv"): "fb405a946e5f46b3d1faf91a4000d815d7c2278b994b5f0f462d0a2a24cc387b",
    ("PM", "a2", "default", "caratheodory", "pretty"): "197ae94e7fa06e39179c79e475ad060568701bbe7e23f40a9948925f354c1061",
    ("PM", "a2", "default", "order:1/3", "json"): "45264ec4ca654a0bf725402d8f376392ac098bccde4a4dda5e5f4829c7840e09",
    ("PM", "a2", "default", "order:1/3", "csv"): "8670527790eb348d17d10f3159253b1efb225c351dfd0e9bfd313bc506e00abf",
    ("PM", "a2", "default", "order:1/3", "pretty"): "525664df7b3aeb0b98142e2b4fe6d91cb0e05460ca884559097b9e0091d62257",
    ("PM", "a2", "default", "skewed", "json"): "b33713448a97f37f739fd012fc4169ec0dc9cbc00dea3c7c494b971f5f9ed26d",
    ("PM", "a2", "default", "skewed", "csv"): "130474a3c8ff68b1c4a338be5c06fd8318b24d816ba0bb2053a3f3c36017a0fe",
    ("PM", "a2", "default", "skewed", "pretty"): "4c018b1a4147b36c7431b86bffc6086ab8d7298d2220fece044a9ddf042ec0a0",
    ("PM", "a2", "fine", "caratheodory", "json"): "624b33ef4f521bb361258f232c91f26202a6f1710597ba33aaae0a9df9828404",
    ("PM", "a2", "fine", "caratheodory", "csv"): "fb405a946e5f46b3d1faf91a4000d815d7c2278b994b5f0f462d0a2a24cc387b",
    ("PM", "a2", "fine", "caratheodory", "pretty"): "197ae94e7fa06e39179c79e475ad060568701bbe7e23f40a9948925f354c1061",
    ("PM", "a2", "fine", "order:1/3", "json"): "45264ec4ca654a0bf725402d8f376392ac098bccde4a4dda5e5f4829c7840e09",
    ("PM", "a2", "fine", "order:1/3", "csv"): "8670527790eb348d17d10f3159253b1efb225c351dfd0e9bfd313bc506e00abf",
    ("PM", "a2", "fine", "order:1/3", "pretty"): "525664df7b3aeb0b98142e2b4fe6d91cb0e05460ca884559097b9e0091d62257",
    ("PM", "a2", "fine", "skewed", "json"): "b33713448a97f37f739fd012fc4169ec0dc9cbc00dea3c7c494b971f5f9ed26d",
    ("PM", "a2", "fine", "skewed", "csv"): "130474a3c8ff68b1c4a338be5c06fd8318b24d816ba0bb2053a3f3c36017a0fe",
    ("PM", "a2", "fine", "skewed", "pretty"): "4c018b1a4147b36c7431b86bffc6086ab8d7298d2220fece044a9ddf042ec0a0",
    ("PM", "a3", "default", "caratheodory", "json"): "bbed4e6ec75989b1c3acece2e0c3a2de764220dce58b06918b5b4c8ed2823c5d",
    ("PM", "a3", "default", "caratheodory", "csv"): "5f20cb057d0c3f10701f409527cee8af1b8d0c17281b9f5a1c6dc0d14c6ff40e",
    ("PM", "a3", "default", "caratheodory", "pretty"): "908bf7f83d1f621cd8c6c19d4f9686a7f2d17c6d3088067ebafd957a557fbffe",
    ("PM", "a3", "default", "order:1/3", "json"): "2b2f978ed06ac572b82a86b121f069d0eb6e5c6643702cf6c218dfb98780a3ee",
    ("PM", "a3", "default", "order:1/3", "csv"): "f190b9a929dce3f447d79b18a49672cabbd9e1b8516973499865fd8cde8afd5f",
    ("PM", "a3", "default", "order:1/3", "pretty"): "ef29735833e4a06200184742cb42690ba1afa8386b0c7c64cde5d4d0badbdfa1",
    ("PM", "a3", "default", "skewed", "json"): "bcd8745ef9c61f432b7475552dfdb19fb1a64ed68339bbc8e4758fa4a2227841",
    ("PM", "a3", "default", "skewed", "csv"): "5cb5c43cc53a03fc29de27d72692edca47b743c2e4de1b53099475baed0fd5da",
    ("PM", "a3", "default", "skewed", "pretty"): "efe7a84d7c4c34d11d8901ed5e5bf09315c327295e86805a4c53b97399765eb2",
    ("PM", "a3", "fine", "caratheodory", "json"): "bbed4e6ec75989b1c3acece2e0c3a2de764220dce58b06918b5b4c8ed2823c5d",
    ("PM", "a3", "fine", "caratheodory", "csv"): "5f20cb057d0c3f10701f409527cee8af1b8d0c17281b9f5a1c6dc0d14c6ff40e",
    ("PM", "a3", "fine", "caratheodory", "pretty"): "908bf7f83d1f621cd8c6c19d4f9686a7f2d17c6d3088067ebafd957a557fbffe",
    ("PM", "a3", "fine", "order:1/3", "json"): "2b2f978ed06ac572b82a86b121f069d0eb6e5c6643702cf6c218dfb98780a3ee",
    ("PM", "a3", "fine", "order:1/3", "csv"): "f190b9a929dce3f447d79b18a49672cabbd9e1b8516973499865fd8cde8afd5f",
    ("PM", "a3", "fine", "order:1/3", "pretty"): "ef29735833e4a06200184742cb42690ba1afa8386b0c7c64cde5d4d0badbdfa1",
    ("PM", "a3", "fine", "skewed", "json"): "bcd8745ef9c61f432b7475552dfdb19fb1a64ed68339bbc8e4758fa4a2227841",
    ("PM", "a3", "fine", "skewed", "csv"): "5cb5c43cc53a03fc29de27d72692edca47b743c2e4de1b53099475baed0fd5da",
    ("PM", "a3", "fine", "skewed", "pretty"): "efe7a84d7c4c34d11d8901ed5e5bf09315c327295e86805a4c53b97399765eb2",
    ("PL", "a2", "default", "caratheodory", "json"): "a2ab040a8bf88d1b9896ae459ed8987901c1ef7ddea29a93a04cec3f28a88b8d",
    ("PL", "a2", "default", "caratheodory", "csv"): "c0b894ccbbeb38e308ba36cb7ae718c56e77e979defd0174ad2153d4238bbe98",
    ("PL", "a2", "default", "caratheodory", "pretty"): "1f90ef8b5008960002179b5bcc306faff3ee6ed22163f6fdb8fbfbe83458f4c5",
    ("PL", "a2", "default", "order:1/3", "json"): "300dc5bbf7ddba34010dcc7480e5bb1a70038b0a15726bd82f92f837990d9b94",
    ("PL", "a2", "default", "order:1/3", "csv"): "fe041f379a20469c94d19302cd86c049d0545bd39a017b4f574f56618cd2b60a",
    ("PL", "a2", "default", "order:1/3", "pretty"): "fb6d1ba4964885fa8599bb473b3d869df6b0a1bac087c2173ceb84505a5ca477",
    ("PL", "a2", "default", "skewed", "json"): "b61c403e6c3e866cea26509a28435c1796905eac9ccf614cc6e7d4c5e90b3c3c",
    ("PL", "a2", "default", "skewed", "csv"): "fcfd1b72a1cafa1fc9db45c8f70caae2a958886ec1b4313440ab21a59104bf4c",
    ("PL", "a2", "default", "skewed", "pretty"): "a78134b1cf1da35b50735f3a129bb8ba23a051eb59b028df579923ddd0df4cba",
    ("PL", "a2", "fine", "caratheodory", "json"): "a2ab040a8bf88d1b9896ae459ed8987901c1ef7ddea29a93a04cec3f28a88b8d",
    ("PL", "a2", "fine", "caratheodory", "csv"): "c0b894ccbbeb38e308ba36cb7ae718c56e77e979defd0174ad2153d4238bbe98",
    ("PL", "a2", "fine", "caratheodory", "pretty"): "1f90ef8b5008960002179b5bcc306faff3ee6ed22163f6fdb8fbfbe83458f4c5",
    ("PL", "a2", "fine", "order:1/3", "json"): "300dc5bbf7ddba34010dcc7480e5bb1a70038b0a15726bd82f92f837990d9b94",
    ("PL", "a2", "fine", "order:1/3", "csv"): "fe041f379a20469c94d19302cd86c049d0545bd39a017b4f574f56618cd2b60a",
    ("PL", "a2", "fine", "order:1/3", "pretty"): "fb6d1ba4964885fa8599bb473b3d869df6b0a1bac087c2173ceb84505a5ca477",
    ("PL", "a2", "fine", "skewed", "json"): "b61c403e6c3e866cea26509a28435c1796905eac9ccf614cc6e7d4c5e90b3c3c",
    ("PL", "a2", "fine", "skewed", "csv"): "fcfd1b72a1cafa1fc9db45c8f70caae2a958886ec1b4313440ab21a59104bf4c",
    ("PL", "a2", "fine", "skewed", "pretty"): "a78134b1cf1da35b50735f3a129bb8ba23a051eb59b028df579923ddd0df4cba",
    ("PL", "a3", "default", "caratheodory", "json"): "e793c9e9b2d0fecfcf7b10408e9e343771f262d2484900b563d97c4d68f5b844",
    ("PL", "a3", "default", "caratheodory", "csv"): "dbc5e4f8b7ef8284550084e1137250fe8fe03a9ce8ee05d6b83c2a4399c56922",
    ("PL", "a3", "default", "caratheodory", "pretty"): "f11fa85ccfe0a6b69229704935194bdbb30185be1ae84f9eb757fcc241307e2f",
    ("PL", "a3", "default", "order:1/3", "json"): "e9dfe7ecf9b1ff4709ab0158afdda2f51f83562fa89d3c12e2508d75c4299acf",
    ("PL", "a3", "default", "order:1/3", "csv"): "37f9997eebcd8f0fee038bfa067190b4e8e59d461dc791b0dda5b8dec4ce2e4d",
    ("PL", "a3", "default", "order:1/3", "pretty"): "6b079663f6e02ce5750ad44de3433ebd416b32e3cb802a3caf4fb093560fb4ee",
    ("PL", "a3", "default", "skewed", "json"): "131b3f5dfb85b743bb9260549c97bf03b8a75d048ed3065d6af1a9caaa17bce9",
    ("PL", "a3", "default", "skewed", "csv"): "ccf93689cc7acc32482f9ca7e3739042898bcb245b62315a6017f613146fc218",
    ("PL", "a3", "default", "skewed", "pretty"): "c22e7ce3fe5e7126944a000afad1bf457980c803e939807df7d16f786501951b",
    ("PL", "a3", "fine", "caratheodory", "json"): "e793c9e9b2d0fecfcf7b10408e9e343771f262d2484900b563d97c4d68f5b844",
    ("PL", "a3", "fine", "caratheodory", "csv"): "dbc5e4f8b7ef8284550084e1137250fe8fe03a9ce8ee05d6b83c2a4399c56922",
    ("PL", "a3", "fine", "caratheodory", "pretty"): "f11fa85ccfe0a6b69229704935194bdbb30185be1ae84f9eb757fcc241307e2f",
    ("PL", "a3", "fine", "order:1/3", "json"): "e9dfe7ecf9b1ff4709ab0158afdda2f51f83562fa89d3c12e2508d75c4299acf",
    ("PL", "a3", "fine", "order:1/3", "csv"): "37f9997eebcd8f0fee038bfa067190b4e8e59d461dc791b0dda5b8dec4ce2e4d",
    ("PL", "a3", "fine", "order:1/3", "pretty"): "6b079663f6e02ce5750ad44de3433ebd416b32e3cb802a3caf4fb093560fb4ee",
    ("PL", "a3", "fine", "skewed", "json"): "131b3f5dfb85b743bb9260549c97bf03b8a75d048ed3065d6af1a9caaa17bce9",
    ("PL", "a3", "fine", "skewed", "csv"): "ccf93689cc7acc32482f9ca7e3739042898bcb245b62315a6017f613146fc218",
    ("PL", "a3", "fine", "skewed", "pretty"): "c22e7ce3fe5e7126944a000afad1bf457980c803e939807df7d16f786501951b",
    ("MM", "a2", "default", "caratheodory", "json"): "0624975a61b4eda6b64fb9c1ee49a56fc5779ff18e9ded526b5ffe141d36d258",
    ("MM", "a2", "default", "caratheodory", "csv"): "ed0389263a2c4945b6b309870d1796c0297d22b90b0fc9f5fde83ef022d30cc5",
    ("MM", "a2", "default", "caratheodory", "pretty"): "072b729ae6cc54a97615e75159484e9b705d33c571b364066ceb5476591ffea8",
    ("MM", "a2", "default", "order:1/3", "json"): "f9e69bf0da30404b476b861a1e7e5f027b1f52e453a19cfa1066341e42f28357",
    ("MM", "a2", "default", "order:1/3", "csv"): "cb9538388886addc3024440484280d8f4588a0a4fdc1b47c23c715f95d76cb45",
    ("MM", "a2", "default", "order:1/3", "pretty"): "9659bde62b64278c904b38b6156fa337e6b7db4a5a8dfa055550b8f92de8ff4f",
    ("MM", "a2", "default", "skewed", "json"): "f4a827fb85c10290a6447b9afe80b01ed253a9712d49326fa0e5952970911a59",
    ("MM", "a2", "default", "skewed", "csv"): "0ddbe6b0795812f52f7a603f0bc8d3d6f5b6d9a52eb3071041f747e86881c0ff",
    ("MM", "a2", "default", "skewed", "pretty"): "7978c5b8a0fe541b87da36bcc1a70f7226525cf3834544ae1ffa8459b3863605",
    ("MM", "a2", "fine", "caratheodory", "json"): "0624975a61b4eda6b64fb9c1ee49a56fc5779ff18e9ded526b5ffe141d36d258",
    ("MM", "a2", "fine", "caratheodory", "csv"): "ed0389263a2c4945b6b309870d1796c0297d22b90b0fc9f5fde83ef022d30cc5",
    ("MM", "a2", "fine", "caratheodory", "pretty"): "072b729ae6cc54a97615e75159484e9b705d33c571b364066ceb5476591ffea8",
    ("MM", "a2", "fine", "order:1/3", "json"): "f9e69bf0da30404b476b861a1e7e5f027b1f52e453a19cfa1066341e42f28357",
    ("MM", "a2", "fine", "order:1/3", "csv"): "cb9538388886addc3024440484280d8f4588a0a4fdc1b47c23c715f95d76cb45",
    ("MM", "a2", "fine", "order:1/3", "pretty"): "9659bde62b64278c904b38b6156fa337e6b7db4a5a8dfa055550b8f92de8ff4f",
    ("MM", "a2", "fine", "skewed", "json"): "f4a827fb85c10290a6447b9afe80b01ed253a9712d49326fa0e5952970911a59",
    ("MM", "a2", "fine", "skewed", "csv"): "0ddbe6b0795812f52f7a603f0bc8d3d6f5b6d9a52eb3071041f747e86881c0ff",
    ("MM", "a2", "fine", "skewed", "pretty"): "7978c5b8a0fe541b87da36bcc1a70f7226525cf3834544ae1ffa8459b3863605",
    ("MM", "a3", "default", "caratheodory", "json"): "08601ec907544ed9e68e1a89a248455f8200549721a39d9bed3cd167adc72e19",
    ("MM", "a3", "default", "caratheodory", "csv"): "fcb4733ea329e94511bb88ca4c1ba5485643b47cb6024208f6f3f432f1c1ee7d",
    ("MM", "a3", "default", "caratheodory", "pretty"): "ca0706e600f55312813479ab1647df44f5879b5fe1cdbf4b60d59c294cd59d06",
    ("MM", "a3", "default", "order:1/3", "json"): "ee8095b98794333dba97a8da1fbcda65ffd0f6737232249ed09808cae0281025",
    ("MM", "a3", "default", "order:1/3", "csv"): "4e81fcc0c2a01ec22586dcd1915a9db66220d6671b7afc790c02fabc6d5a3944",
    ("MM", "a3", "default", "order:1/3", "pretty"): "d50e7dfd0c0aa3e00f56969fa478f48a7db0892ad63d1ba577bf92ba24bdbbb1",
    ("MM", "a3", "default", "skewed", "json"): "0fde0596e879ac5abfa55ece6cb7a13b642e2a8a33b179d16405a09eb65360b1",
    ("MM", "a3", "default", "skewed", "csv"): "1dd624a17ece1cd8b70778d03a26703f59a3cc5a97087d10d45b6a0edfd0ddf4",
    ("MM", "a3", "default", "skewed", "pretty"): "bdd0db3be23e1902fb8dd331d070ab60ebb367fd18b0b845b508f979df1a3c5d",
    ("MM", "a3", "fine", "caratheodory", "json"): "08601ec907544ed9e68e1a89a248455f8200549721a39d9bed3cd167adc72e19",
    ("MM", "a3", "fine", "caratheodory", "csv"): "fcb4733ea329e94511bb88ca4c1ba5485643b47cb6024208f6f3f432f1c1ee7d",
    ("MM", "a3", "fine", "caratheodory", "pretty"): "ca0706e600f55312813479ab1647df44f5879b5fe1cdbf4b60d59c294cd59d06",
    ("MM", "a3", "fine", "order:1/3", "json"): "ee8095b98794333dba97a8da1fbcda65ffd0f6737232249ed09808cae0281025",
    ("MM", "a3", "fine", "order:1/3", "csv"): "4e81fcc0c2a01ec22586dcd1915a9db66220d6671b7afc790c02fabc6d5a3944",
    ("MM", "a3", "fine", "order:1/3", "pretty"): "d50e7dfd0c0aa3e00f56969fa478f48a7db0892ad63d1ba577bf92ba24bdbbb1",
    ("MM", "a3", "fine", "skewed", "json"): "0fde0596e879ac5abfa55ece6cb7a13b642e2a8a33b179d16405a09eb65360b1",
    ("MM", "a3", "fine", "skewed", "csv"): "1dd624a17ece1cd8b70778d03a26703f59a3cc5a97087d10d45b6a0edfd0ddf4",
    ("MM", "a3", "fine", "skewed", "pretty"): "bdd0db3be23e1902fb8dd331d070ab60ebb367fd18b0b845b508f979df1a3c5d",
    ("ML", "a2", "default", "caratheodory", "json"): "e29d3d0c1b52cf7b9213cdde6bf38090da803bc25391ef8669c53d9f5420c609",
    ("ML", "a2", "default", "caratheodory", "csv"): "bd33daf4ec0ae6290a5a51e163ce985febbad41e2bc8cbab56d5e802572e6a3d",
    ("ML", "a2", "default", "caratheodory", "pretty"): "f37413e076d18f998b789a20950a1389f67297afe1de065fd606f2eca86dadf5",
    ("ML", "a2", "default", "order:1/3", "json"): "3ddb34ab6c226bd18f387111f6681454ccb1b3afa0abf4f895acdba7cb7f1102",
    ("ML", "a2", "default", "order:1/3", "csv"): "e40fcd8e0843c0c0c1455d35bd7ba83254edf2211d327f8e0cb7ca0f60dd3c19",
    ("ML", "a2", "default", "order:1/3", "pretty"): "32dcb74b8d1d62e45244d754bfa3e5d24aa55504fa96060022c86ec22977f119",
    ("ML", "a2", "default", "skewed", "json"): "ada84aea09bf1f97832229ba57c2dfe9693fef7ac58ef21fe85eb065d1d1d754",
    ("ML", "a2", "default", "skewed", "csv"): "8516e4ab692c9b455215937e34f4f6340d5678d2256e072babbb13738f7960a0",
    ("ML", "a2", "default", "skewed", "pretty"): "5951546ba150532516b54c0e7c83abdcf53c86a08dd4d0a7c9aac0dc5d2d97a5",
    ("ML", "a2", "fine", "caratheodory", "json"): "e29d3d0c1b52cf7b9213cdde6bf38090da803bc25391ef8669c53d9f5420c609",
    ("ML", "a2", "fine", "caratheodory", "csv"): "bd33daf4ec0ae6290a5a51e163ce985febbad41e2bc8cbab56d5e802572e6a3d",
    ("ML", "a2", "fine", "caratheodory", "pretty"): "f37413e076d18f998b789a20950a1389f67297afe1de065fd606f2eca86dadf5",
    ("ML", "a2", "fine", "order:1/3", "json"): "3ddb34ab6c226bd18f387111f6681454ccb1b3afa0abf4f895acdba7cb7f1102",
    ("ML", "a2", "fine", "order:1/3", "csv"): "e40fcd8e0843c0c0c1455d35bd7ba83254edf2211d327f8e0cb7ca0f60dd3c19",
    ("ML", "a2", "fine", "order:1/3", "pretty"): "32dcb74b8d1d62e45244d754bfa3e5d24aa55504fa96060022c86ec22977f119",
    ("ML", "a2", "fine", "skewed", "json"): "ada84aea09bf1f97832229ba57c2dfe9693fef7ac58ef21fe85eb065d1d1d754",
    ("ML", "a2", "fine", "skewed", "csv"): "8516e4ab692c9b455215937e34f4f6340d5678d2256e072babbb13738f7960a0",
    ("ML", "a2", "fine", "skewed", "pretty"): "5951546ba150532516b54c0e7c83abdcf53c86a08dd4d0a7c9aac0dc5d2d97a5",
    ("ML", "a3", "default", "caratheodory", "json"): "8a4f6249654e732ecaf17a08a8537ae37c1b43654ec5f73217381ed4b3f69201",
    ("ML", "a3", "default", "caratheodory", "csv"): "cd4c1d207ebbeef42edc797813e8376cef918d64587d7b4df30fcf9b888677bb",
    ("ML", "a3", "default", "caratheodory", "pretty"): "23e6380bf82d43540b41d482be7e3ef6bc1c80864ffedd1c21a5c8275c759f12",
    ("ML", "a3", "default", "order:1/3", "json"): "45cc2204aaa705c742d6e6e8a8069cfa86d337c9cb73d09ffbcb9bcb6dc78664",
    ("ML", "a3", "default", "order:1/3", "csv"): "52367ef6a4450b6f6aafefdf4d551c7a5e6285923e806876ca5cbe5c61a6c820",
    ("ML", "a3", "default", "order:1/3", "pretty"): "296845083cfdeb54d30416aae2f0f39bb8ce067a141417e2c0e70060ffa4caff",
    ("ML", "a3", "default", "skewed", "json"): "8ade5d95d0677d1e886de6b396f7c4e135cf311897d23937924416f9a3e63a3e",
    ("ML", "a3", "default", "skewed", "csv"): "920f5c3164041f1220fd0bc41e45dccf7618804ec2f9c383bd28a6d137c47fbc",
    ("ML", "a3", "default", "skewed", "pretty"): "b6f7a35cdec00cbd363667c889032a4d044f78d38ad67b55bf5eebace88906a4",
    ("ML", "a3", "fine", "caratheodory", "json"): "8a4f6249654e732ecaf17a08a8537ae37c1b43654ec5f73217381ed4b3f69201",
    ("ML", "a3", "fine", "caratheodory", "csv"): "cd4c1d207ebbeef42edc797813e8376cef918d64587d7b4df30fcf9b888677bb",
    ("ML", "a3", "fine", "caratheodory", "pretty"): "23e6380bf82d43540b41d482be7e3ef6bc1c80864ffedd1c21a5c8275c759f12",
    ("ML", "a3", "fine", "order:1/3", "json"): "45cc2204aaa705c742d6e6e8a8069cfa86d337c9cb73d09ffbcb9bcb6dc78664",
    ("ML", "a3", "fine", "order:1/3", "csv"): "52367ef6a4450b6f6aafefdf4d551c7a5e6285923e806876ca5cbe5c61a6c820",
    ("ML", "a3", "fine", "order:1/3", "pretty"): "296845083cfdeb54d30416aae2f0f39bb8ce067a141417e2c0e70060ffa4caff",
    ("ML", "a3", "fine", "skewed", "json"): "8ade5d95d0677d1e886de6b396f7c4e135cf311897d23937924416f9a3e63a3e",
    ("ML", "a3", "fine", "skewed", "csv"): "920f5c3164041f1220fd0bc41e45dccf7618804ec2f9c383bd28a6d137c47fbc",
    ("ML", "a3", "fine", "skewed", "pretty"): "b6f7a35cdec00cbd363667c889032a4d044f78d38ad67b55bf5eebace88906a4",
    ("LL", "a2", "default", "caratheodory", "json"): "8900f140356d7fbd50e14ed320401787c9399b89cb297840b1455d5cac14e812",
    ("LL", "a2", "default", "caratheodory", "csv"): "ed934e107be09026312f20ddbca57cf8c09ba0c6c2031b738e831450a1a5265e",
    ("LL", "a2", "default", "caratheodory", "pretty"): "f8ff138ae053bdf7318df8281a7fa4af60df3348e292373e68fbf56d9d8ca124",
    ("LL", "a2", "default", "order:1/3", "json"): "386eb551ccf4b2299b5a9812ccce2e2bb183a6ffea89a49b4693060324d9f82d",
    ("LL", "a2", "default", "order:1/3", "csv"): "60acc9e5f520142ff4a6fcb1625d8bd9197a56b5618c05ac8e92f16a597e6423",
    ("LL", "a2", "default", "order:1/3", "pretty"): "1f0a2dfe4352637e6898deb3961e219b80b03ede43133e9a2345398a444ea899",
    ("LL", "a2", "default", "skewed", "json"): "aeb39d07b66f2df37b19a7665b13a0c5252a6918e718cff35d28116dea82e55e",
    ("LL", "a2", "default", "skewed", "csv"): "006f765d84580c4b319ac364ee3308a39e64f8636067313ca7c0ecc953d177a0",
    ("LL", "a2", "default", "skewed", "pretty"): "3e47fe0f1acff94467e916de595da3babfa4950fff64099d5e148746be34d2fe",
    ("LL", "a2", "fine", "caratheodory", "json"): "8900f140356d7fbd50e14ed320401787c9399b89cb297840b1455d5cac14e812",
    ("LL", "a2", "fine", "caratheodory", "csv"): "ed934e107be09026312f20ddbca57cf8c09ba0c6c2031b738e831450a1a5265e",
    ("LL", "a2", "fine", "caratheodory", "pretty"): "f8ff138ae053bdf7318df8281a7fa4af60df3348e292373e68fbf56d9d8ca124",
    ("LL", "a2", "fine", "order:1/3", "json"): "386eb551ccf4b2299b5a9812ccce2e2bb183a6ffea89a49b4693060324d9f82d",
    ("LL", "a2", "fine", "order:1/3", "csv"): "60acc9e5f520142ff4a6fcb1625d8bd9197a56b5618c05ac8e92f16a597e6423",
    ("LL", "a2", "fine", "order:1/3", "pretty"): "1f0a2dfe4352637e6898deb3961e219b80b03ede43133e9a2345398a444ea899",
    ("LL", "a2", "fine", "skewed", "json"): "aeb39d07b66f2df37b19a7665b13a0c5252a6918e718cff35d28116dea82e55e",
    ("LL", "a2", "fine", "skewed", "csv"): "006f765d84580c4b319ac364ee3308a39e64f8636067313ca7c0ecc953d177a0",
    ("LL", "a2", "fine", "skewed", "pretty"): "3e47fe0f1acff94467e916de595da3babfa4950fff64099d5e148746be34d2fe",
    ("LL", "a3", "default", "caratheodory", "json"): "b3833040a7b40ff580ac17a409204df012f1b05b956a6f5534374b217499ee00",
    ("LL", "a3", "default", "caratheodory", "csv"): "66cde5b77231d2a87dee8c3c09551cfdfae9d1dd0ab3f37b904430c55b5dbb85",
    ("LL", "a3", "default", "caratheodory", "pretty"): "4db9a0a99c1710afcfaa9a9f4c6da4a58f46d15a67dfe06c893f322accb7f997",
    ("LL", "a3", "default", "order:1/3", "json"): "12cdced5077884eb841c75d43c629678dc0f4c7e8eebbc41ae27f9b9f5261f47",
    ("LL", "a3", "default", "order:1/3", "csv"): "295f1610cc2818b584022acc8981b478c8bf91c01d93015c8eca9d1adf11e7ef",
    ("LL", "a3", "default", "order:1/3", "pretty"): "6faa08885bdadc90532b10afb9077024c77625c73b5e6b1463fa7fbfa9cb0037",
    ("LL", "a3", "default", "skewed", "json"): "a0103336f868f5cd241ff6b0e2346d551fe02cb8c4d53602e5bb864b75fb1e52",
    ("LL", "a3", "default", "skewed", "csv"): "2d284728c36e1a7a8f95632b98ee955fa9f4adf2b1c2ddb79b673e8f97db6390",
    ("LL", "a3", "default", "skewed", "pretty"): "e38f74056d0cfffa7fc688dc851e4fa402d31d4d4c89b6042f5b9980492e10b7",
    ("LL", "a3", "fine", "caratheodory", "json"): "b3833040a7b40ff580ac17a409204df012f1b05b956a6f5534374b217499ee00",
    ("LL", "a3", "fine", "caratheodory", "csv"): "66cde5b77231d2a87dee8c3c09551cfdfae9d1dd0ab3f37b904430c55b5dbb85",
    ("LL", "a3", "fine", "caratheodory", "pretty"): "4db9a0a99c1710afcfaa9a9f4c6da4a58f46d15a67dfe06c893f322accb7f997",
    ("LL", "a3", "fine", "order:1/3", "json"): "12cdced5077884eb841c75d43c629678dc0f4c7e8eebbc41ae27f9b9f5261f47",
    ("LL", "a3", "fine", "order:1/3", "csv"): "295f1610cc2818b584022acc8981b478c8bf91c01d93015c8eca9d1adf11e7ef",
    ("LL", "a3", "fine", "order:1/3", "pretty"): "6faa08885bdadc90532b10afb9077024c77625c73b5e6b1463fa7fbfa9cb0037",
    ("LL", "a3", "fine", "skewed", "json"): "a0103336f868f5cd241ff6b0e2346d551fe02cb8c4d53602e5bb864b75fb1e52",
    ("LL", "a3", "fine", "skewed", "csv"): "2d284728c36e1a7a8f95632b98ee955fa9f4adf2b1c2ddb79b673e8f97db6390",
    ("LL", "a3", "fine", "skewed", "pretty"): "e38f74056d0cfffa7fc688dc851e4fa402d31d4d4c89b6042f5b9980492e10b7",
}

class TestGolden:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_output(self, name):
        code, text = run_cli(PINNED[name])
        assert code == 0
        assert text == (GOLDEN / name).read_text()

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_repeat_runs_identical(self, name):
        first = run_cli(PINNED[name])
        second = run_cli(PINNED[name])
        assert first == second

    def test_hash_seed_independence(self):
        # byte-identical across interpreter hash randomization
        outputs = set()
        for hashseed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(
                [sys.executable, "-m", "bibounds", *PINNED["bound.json"]],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert outputs.pop() == (GOLDEN / "bound.json").read_text()

    @pytest.mark.parametrize("tag, targets, fmt", sorted(AUDIT_GRID_DIGESTS))
    def test_audit_grid_digest(self, tag, targets, fmt):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["audit", "--theorem", tag, "--grid", "0:1:1/10",
                             *AUDIT_GRID_TARGETS[targets], "--format", fmt])
        text = repr((code, out.getvalue(), err.getvalue()))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            AUDIT_GRID_DIGESTS[tag, targets, fmt]

    @pytest.mark.parametrize("tag, what, grid, targets, fmt", sorted(SWEEP_DIGESTS))
    def test_sweep_digest(self, tag, what, grid, targets, fmt):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["sweep", "--pair", tag, "--alpha", "1/3", "--beta", "1/2",
                             *SWEEP_TARGETS[targets], "--what", what,
                             *SWEEP_GRIDS[grid], "--format", fmt])
        text = repr((code, out.getvalue(), err.getvalue()))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            SWEEP_DIGESTS[tag, what, grid, targets, fmt]

    # (17, 64) and (600, 4) were over the old cap on the grid size.
    @pytest.mark.parametrize("radial, phase",
                             [(2, 4), (9, 16), (17, 32), (16, 64), (17, 64), (600, 4)],
                             ids=["2x4", "9x16", "17x32", "16x64", "17x64", "600x4"])
    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    @pytest.mark.parametrize("what", ["a2", "a3"])
    def test_grid_flags_change_nothing(self, what, fmt, radial, phase):
        # The sweeps take their exact corners and read no grid settings.
        argv = ["sweep", "--pair", "PL", "--alpha", "1/3", "--beta", "1/2",
                "--psi-coeffs", "2,1", "--what", what, "--format", fmt]
        expected = run_cli(argv)
        assert expected[0] == 0
        assert run_cli(argv + ["--radial-steps", str(radial),
                               "--phase-steps", str(phase)]) == expected


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert cli.main(["bound", "--pair", "PP"]) == cli.EXIT_USAGE
        assert cli.main(["bound", "--pair", "XX", "--alpha", "0", "--beta", "0"]) \
            == cli.EXIT_USAGE
        assert cli.main(["sweep", "--pair", "PP", "--alpha", "zebra",
                         "--beta", "0"]) == cli.EXIT_USAGE

    def test_out_of_range_parameter_is_usage_error(self, capsys):
        code = cli.main(
            ["bound", "--pair", "LL", "--alpha", "2", "--beta", "0"]
        )
        assert code == cli.EXIT_USAGE

    def test_degenerate_bound_still_prints(self):
        code, text = run_cli(
            ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0",
             "--phi-coeffs", "1,2", "--psi-coeffs", "1,2"]
        )
        assert code == cli.EXIT_DEGENERATE
        assert '"a2_printed": null' in text
        assert '"degenerate": true' in text

    def test_verify_failure_exit_code(self, monkeypatch, capsys):
        def fake(suite, mode, seed, samples):
            return [CheckResult("broken", False, "witness text")]

        monkeypatch.setattr(cli._harness, "run_identity_suites", fake)
        code, text = run_cli(["verify", "--suite", "identities"])
        assert code == cli.EXIT_VERIFY_FAILED
        assert '"passed": false' in text
        assert "witness text" in capsys.readouterr().err

    def test_violated_sweep_bound_exits_3_with_one_line(self, monkeypatch, capsys):
        generic_a2_bound = bounds.generic_a2_bound
        monkeypatch.setattr(bounds, "generic_a2_bound",
                            lambda pair: generic_a2_bound(pair) / 2)
        assert cli.main(SWEEP) == cli.EXIT_VERIFY_FAILED
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("bound violation: a2 sweep exceeded its bound")

    def test_large_target_a3_sweep_succeeds(self):
        code, text = run_cli(
            ["sweep", "--pair", "PM", "--alpha", "1/2", "--beta", "1/3",
             "--phi-coeffs", "2,1e8", "--what", "a3"]
        )
        assert code == 0
        assert '"gap": 0.0' in text

    def test_cancelling_large_target_a3_sweep_succeeds(self):
        # W's two terms, about 2e11 each, cancel: the corner S3 = 2 lies
        # far below the termwise bound of about 1.5e12.
        code, text = run_cli(
            ["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0", "--what", "a3",
             "--phi-coeffs", "2,1000000000002", "--psi-coeffs", "2,-2999999999998"]
        )
        assert code == 0
        assert json.loads(text)["max_value"] == 2.0

    @pytest.mark.parametrize("what", ["a2", "a3"])
    def test_huge_parameter_sweep_is_its_exact_corner(self, what):
        # The corners are exact, so alpha = beta = 1e300 overflows no float
        # constant; with equal targets either corner reaches its bound.
        big = Fraction(10**300)
        _, a2_sq, a3 = generic_reference("MM", big, big, 2, 2, 2, 2)
        want = math.sqrt(a2_sq) if what == "a2" else float(a3)
        code, text = run_cli(["sweep", "--pair", "MM", "--alpha", "1e300",
                              "--beta", "1e300", "--what", what])
        payload = json.loads(text)
        assert code == 0
        assert payload["max_value"] == payload["bound"] == float(f"{want:.9g}")
        assert payload["attained"] is True

    def test_a2_degenerate_pair_still_sweeps_a3(self):
        # DEN vanishes, so the a2 sweep is refused, but a3 needs only the
        # determinant sigma_tilde = 4; equal tails put the corner at the bound.
        code, text = run_cli(SWEEP + ["--phi-coeffs", "1,2", "--psi-coeffs", "1,2",
                                      "--what", "a3"])
        payload = json.loads(text)
        assert code == 0
        assert payload["max_value"] == payload["bound"] == 2.0
        assert payload["attained"] is True

    @pytest.mark.parametrize("scale", ["", "e-12"], ids=["1", "1e-12"])
    def test_small_target_a3_gap_is_not_attained(self, scale):
        # The gap is a quarter of the bound at every scale; an absolute
        # tolerance of 1e-9 would call it attained below about 1e-9.
        code, text = run_cli(
            ["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0", "--what", "a3",
             "--phi-coeffs", f"2{scale},4{scale}", "--psi-coeffs", f"2{scale},0"]
        )
        payload = json.loads(text)
        assert code == 0
        assert payload["max_value"] == float(f"3{scale}")
        assert payload["bound"] == float(f"4{scale}")
        assert payload["attained"] is False

    def test_verify_success(self):
        code, text = run_cli(
            ["verify", "--suite", "series", "--seed", "1", "--samples", "5"]
        )
        assert code == 0
        assert '"passed": true' in text


class TestFormats:
    def test_sweep_csv_columns(self):
        # A coefficient past the stored ones reads 0, as in MindaTarget.
        for targets, b2 in (([], "2"), (["--phi-coeffs", "1"], "0")):
            code, text = run_cli(
                ["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0", *targets,
                 "--what", "a2", "--format", "csv"]
            )
            assert code == 0
            header, row = text.strip().splitlines()
            assert header == (
                "theorem,alpha,beta,B1,B2,D1,D2,quantity,max_value,bound,gap,attained"
            )
            fields = row.split(",")
            assert fields[0] == "PP"
            assert fields[4] == b2
            assert fields[7] == "a2"
            assert fields[11] == "true"

    def test_audit_csv(self):
        code, text = run_cli(
            ["audit", "--theorem", "LL", "--grid", "0:1:0.5", "--format", "csv"]
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0].startswith("theorem,alpha,beta,B1,B2,D1,D2,field")
        assert len(lines) == 5  # header + the four alpha*beta != 0 points

    def test_pretty_outputs(self):
        for argv in (
            ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0",
             "--format", "pretty"],
            ["audit", "--theorem", "PP", "--grid", "0:0:1", "--format", "pretty"],
            ["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0",
             "--format", "pretty"],
            ["expand", "--class", "P", "--alpha", "0", "--a2", "1", "--a3", "1",
             "--format", "pretty"],
            ["verify", "--suite", "series", "--samples", "3", "--format", "pretty"],
            ["table", "--format", "pretty"],
        ):
            code, text = run_cli(argv)
            assert code == 0, argv
            assert text

    def test_csv_unsupported_for_bound(self):
        code, _ = run_cli(
            ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0",
             "--format", "csv"]
        )
        assert code == cli.EXIT_USAGE


class TestTargets:
    def test_explicit_coeffs_override_preset(self):
        code, text = run_cli(
            ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0",
             "--phi", "caratheodory", "--phi-coeffs", "1,1",
             "--psi-coeffs", "1,1"]
        )
        assert code == 0
        assert '"phi": [\n    1.0,\n    1.0\n  ]' in text

    def test_preset_with_parameter(self):
        code, text = run_cli(
            ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0",
             "--phi", "strong:1/2", "--psi", "strong:1/2"]
        )
        assert code == 0
        assert '"sigma_printed": 2.0' in text

    def test_bad_preset_is_usage_error(self, capsys):
        assert cli.main(
            ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0",
             "--phi", "nope"]
        ) == cli.EXIT_USAGE


def test_config_variable_changes_nothing(tmp_path, monkeypatch):
    # The CLI reads no file and no environment variable: a BIBOUNDS_CONFIG
    # that names a file of settings, or a missing file, leaves every
    # default as it is.
    config = tmp_path / "defaults.cfg"
    config.write_text("seed=5\nsamples=3\ntolerance=0.5\n")
    for path in (config, tmp_path / "missing.cfg"):
        monkeypatch.setenv("BIBOUNDS_CONFIG", str(path))
        code, text = run_cli(["verify", "--suite", "series"])
        payload = json.loads(text)
        assert (code, payload["seed"], payload["samples"]) == (cli.EXIT_OK, 7, 60)
        assert run_cli(["table"]) == (cli.EXIT_OK, (GOLDEN / "table.json").read_text())


BOUND = ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0"]
AUDIT = ["audit", "--theorem", "LL", "--grid", "0:1:0.5"]
SWEEP = ["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0"]
EXPAND = ["expand", "--class", "P", "--alpha", "0", "--a2", "1", "--a3", "1"]

# name -> argv; each must exit 1 with no output.
REJECTED = {
    # No command takes --order, and the CLI reads no config file: each
    # flag is unknown.
    "config_flag": ["--config", "x", "table"],
    # An option goes after its command.
    "format_before_command": ["--format", "json", "table"],
    "bound_order_1": BOUND + ["--order", "1"],
    "expand_order_2": EXPAND + ["--order", "2"],
    "expand_order_1": EXPAND + ["--order", "1"],
    "verify_samples_0": ["verify", "--samples", "0"],
    "verify_samples_negative": ["verify", "--samples", "-5"],
    "verify_seed_negative": ["verify", "--seed", "-1"],
    # Uncapped, one flag could keep verify running for hours.
    "verify_samples_above_cap": ["verify", "--samples", str(MAX_SAMPLES + 1)],
    "sweep_phase_steps_3": SWEEP + ["--phase-steps", "3"],
    "sweep_radial_steps_1": SWEEP + ["--radial-steps", "1"],
    "audit_tolerance_nan": AUDIT + ["--tolerance", "nan"],
    "audit_tolerance_inf": AUDIT + ["--tolerance", "inf"],
    "audit_tolerance_negative": AUDIT + ["--tolerance", "-1"],
    # A relative tolerance of 1 or more would let the audit pass vacuously.
    "audit_tolerance_1": AUDIT + ["--tolerance", "1"],
    "audit_tolerance_2": AUDIT + ["--tolerance", "2"],
    "audit_tolerance_1e300": AUDIT + ["--tolerance", "1e300"],
    "preset_zero_denominator": BOUND + ["--phi", "order:1/0"],
    "bound_order_65": BOUND + ["--order", "65"],
    # An empty target flag is refused, not read as the Caratheodory default.
    "bound_phi_empty": BOUND + ["--phi", ""],
    "bound_psi_empty": BOUND + ["--psi", ""],
    "bound_phi_coeffs_empty": BOUND + ["--phi-coeffs", ""],
    "bound_psi_coeffs_empty": BOUND + ["--psi-coeffs", ""],
    "bound_psi_coeffs_empty_beside_psi": BOUND + ["--psi", "caratheodory",
                                                  "--psi-coeffs", ""],
    "audit_phi_empty": AUDIT + ["--phi", ""],
    "audit_psi_empty": AUDIT + ["--psi", ""],
    "audit_phi_coeffs_empty": AUDIT + ["--phi-coeffs", ""],
    "audit_psi_coeffs_empty": AUDIT + ["--psi-coeffs", ""],
    "sweep_phi_empty": SWEEP + ["--phi", ""],
    "sweep_psi_empty": SWEEP + ["--psi", ""],
    "sweep_phi_coeffs_empty": SWEEP + ["--phi-coeffs", ""],
    "sweep_psi_coeffs_empty": SWEEP + ["--psi-coeffs", ""],
    # DEN vanishes: |a2| has no bound to sweep against.
    "sweep_a2_degenerate": SWEEP + ["--phi-coeffs", "1,2", "--psi-coeffs", "1,2"],
}
# Rationals whose float conversion overflows.
OVERFLOWS = {
    "bound_alpha_beta_1e300": ["bound", "--pair", "PP", "--alpha", "1e300", "--beta", "1e300"],
    "bound_alpha_1e400": ["bound", "--pair", "PP", "--alpha", "1e400", "--beta", "0"],
    "expand_a2_1e400": ["expand", "--class", "P", "--alpha", "0", "--a2", "1e400", "--a3", "0"],
    "expand_l_a2_1e300": ["expand", "--class", "L", "--alpha", "1/3", "--a2", "1e300",
                          "--a3", "1"],
    "expand_l_a2_1e1000": ["expand", "--class", "L", "--alpha", "1/3", "--a2", "1e1000",
                           "--a3", "1"],
    "bound_phi_coeffs_1e400": BOUND + ["--phi-coeffs", "1,1e400"],
    "audit_grid_1e300": ["audit", "--theorem", "MM", "--grid", "1e300:1e300:1"],
    "sweep_alpha_beta_1e400": ["sweep", "--pair", "MM", "--alpha", "1e400", "--beta", "1e400"],
    "sweep_phi_coeffs_1e400": SWEEP + ["--phi-coeffs", "1,1e400", "--what", "a3"],
}
REJECTED.update(OVERFLOWS)
# Decimal exponents past the parser's limit, and range checks on huge values.
HUGE = {
    "bound_alpha_1e4301": ["bound", "--pair", "PP", "--alpha", "1e4301", "--beta", "0"],
    "bound_alpha_1e-4301": ["bound", "--pair", "PP", "--alpha", "1e-4301", "--beta", "0"],
    "audit_grid_step_1e-4301": ["audit", "--theorem", "PP", "--grid", "0:1:1e-4301"],
    "bound_phi_coeffs_1e4301": BOUND + ["--phi-coeffs", "1,1e4301"],
    "expand_l_alpha_1e300": ["expand", "--class", "L", "--alpha", "1e300",
                             "--a2", "1", "--a3", "1"],
    "bound_alpha_minus_1e300": ["bound", "--pair", "PP", "--alpha=-1e300", "--beta", "0"],
    "audit_grid_points_1e300": ["audit", "--theorem", "PP", "--grid", "0:1e300:1"],
    # Literals of more digits than the parser's limit, with no exponent.
    "bound_alpha_5000_ones": ["bound", "--pair", "PP", "--alpha", "1" * 5000, "--beta", "0"],
    "bound_order_5000_digits": BOUND + ["--order", "7" * 5000],
    "bound_phi_coeffs_5000_digits": BOUND + ["--phi-coeffs", "1," + "7" * 5000],
    "audit_grid_step_5000_digits": ["audit", "--theorem", "PP", "--grid", "0:1:" + "7" * 5000],
    "verify_samples_5000_digits": ["verify", "--samples", "9" * 5000],
    "sweep_phase_steps_5000_digits": SWEEP + ["--phase-steps", "-" + "9" * 5000],
    # Long text that is not a number: every message quotes it shortened.
    "bound_pair_5000_xs": ["bound", "--pair", "x" * 5000, "--alpha", "0", "--beta", "0"],
    "bound_alpha_5000_xs": ["bound", "--pair", "PP", "--alpha", "x" * 5000, "--beta", "0"],
    "bound_phi_5000_xs": BOUND + ["--phi", "x" * 5000],
    "bound_phi_coeffs_5000_xs": BOUND + ["--phi-coeffs", "1," + "x" * 5000],
    "audit_grid_5000_xs": ["audit", "--theorem", "PP", "--grid", "x" * 5000],
    "audit_tolerance_5000_xs": AUDIT + ["--tolerance", "x" * 5000],
    "verify_suite_5000_xs": ["verify", "--suite", "x" * 5000],
    "table_5000_xs": ["table", "x" * 5000],
}
REJECTED.update(HUGE)


class TestInputContract:
    def test_grid_points_per_axis_are_capped(self):
        assert len(cli._parse_grid("0:100:1")) == 101
        with pytest.raises(cli.UsageError):
            cli._parse_grid("0:101:1")

    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_rejected_with_usage_error(self, name, capsys):
        code, text = run_cli(REJECTED[name])
        assert (code, text) == (cli.EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("usage error: ")
        assert len(err) < 200

    @pytest.mark.parametrize("name", sorted(OVERFLOWS))
    def test_float_overflow_is_one_usage_error_line(self, name, capsys):
        assert cli.main(OVERFLOWS[name]) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("usage error: a result does not fit a float")

    @pytest.mark.parametrize("name", sorted(n for n, argv in OVERFLOWS.items()
                                            if argv[0] == "expand"))
    def test_expand_overflow_is_refused_before_the_series(self, name, monkeypatch,
                                                          capsys):
        # The floats of the input and the closed form overflow first, so the
        # exact series work never starts.
        def series_engine(*args, **kwargs):
            raise AssertionError("expand ran the series engine")
        monkeypatch.setattr(cli, "functional", series_engine)
        assert cli.main(OVERFLOWS[name]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: a result does not fit a float")

    @pytest.mark.parametrize("name", sorted(HUGE))
    def test_huge_values_give_one_short_usage_error_line(self, name, capsys):
        assert cli.main(HUGE[name]) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("usage error: ")
        assert len(err) < 200

    def test_exponent_limit_quotes_the_text(self, capsys):
        assert cli.main(["audit", "--theorem", "PP", "--grid", "0:1:1E-0_4301"]) == 1
        assert "'1E-0_4301'" in capsys.readouterr().err
        assert cli.main(HUGE["bound_alpha_1e4301"]) == 1
        assert "'1e4301'" in capsys.readouterr().err

    def test_short_text_is_quoted_whole(self, capsys):
        # Shortening leaves argparse's and the library's wording as it was.
        for argv, message in (
            (["bound", "--pair", "PP", "--alpha", "zebra", "--beta", "0"],
             "argument --alpha: invalid rational value: 'zebra'"),
            (["bound", "--pair", "xy", "--alpha", "0", "--beta", "0"],
             "unknown pairing tag 'XY'"),
            (AUDIT + ["--tolerance", "tiny"],
             "argument --tolerance: invalid float value: 'tiny'"),
            (BOUND + ["--phi-coeffs", "1,two"], "Invalid literal for Fraction: 'two'"),
        ):
            assert cli.main(argv) == cli.EXIT_USAGE
            assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize("argv", [["--format", "json", "table"],
                                      ["--format=csv", "audit"],
                                      ["--config", "x", "table"],
                                      ["--bogus", "table"], ["-x"]])
    def test_option_before_the_command_is_named(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"usage error: unrecognized arguments: {argv[0]}\n")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_before_any_command_still_prints_help(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([flag])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: bibounds ")

    def test_negative_seed_message(self, capsys):
        assert cli.main(["verify", "--seed", "-1"]) == cli.EXIT_USAGE
        assert capsys.readouterr() == ("", "usage error: seed must be at least 0, got -1\n")

    def test_tolerance_of_one_or_more_is_refused(self, capsys):
        assert cli.main(AUDIT + ["--tolerance", "2"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "usage error: tolerance must be below 1, got 2.0\n"
        code, text = run_cli(AUDIT + ["--tolerance", "0.999"])
        assert code == cli.EXIT_OK and '"tolerance": 0.999' in text

    # The two grid flags set nothing, but each keeps its one check.
    @pytest.mark.parametrize("flag, value, message", [
        ("--radial-steps", "1", "need at least 2 radial steps"),
        ("--phase-steps", "3", "need at least 4 phase steps"),
    ])
    def test_grid_flag_checks(self, flag, value, message, capsys):
        assert cli.main(SWEEP + [flag, value]) == cli.EXIT_USAGE
        assert capsys.readouterr() == ("", f"usage error: {message}\n")


# The slowest accepted bound and expand inputs at the fixed orders: presets
# with 4297-digit parameters on both sides, and an L expansion of 4300-digit
# rationals.
SLOWEST = {
    "bound_strong_1e-4300": BOUND + ["--phi", "strong:1e-4300", "--psi", "strong:1e-4300"],
    "expand_l_1e-4300": ["expand", "--class", "L", "--alpha", "1e-4300",
                         "--a2", "1e-4300", "--a3", "1e-4300"],
}
# name -> (class, alpha, a2, a3, orders the series engine is run at).  The
# last case's exact series takes about 30 s at order 64, so it stops at 8.
EXPAND_CASES = {
    "P": ("P", "1/2", "1/3", "-1/4", (3, 8, 64)),
    "P_large_digits": ("P", "1e-300", str(2**300), f"-1/{3**150}", (3, 8, 64)),
    "M": ("M", "1", "0.5", "0.25", (3, 8, 64)),
    "M_large_digits": ("M", "7/9", f"-{10**40 + 1}/{3**30}", "1e-50", (3, 8, 64)),
    "L": ("L", "1/3", "1/2", "1/4", (3, 8, 64)),
    "L_large_alpha": ("L", "1e-30", "1/2", "1/4", (3, 8, 64)),
    "L_large_digits": ("L", "1/3", "1e-30", f"-{7**20}/{11**15}", (3, 8)),
}


class TestFixedOrders:
    @pytest.mark.parametrize("name", sorted(EXPAND_CASES))
    def test_expand_payload_is_the_same_at_every_order(self, name, monkeypatch):
        # e1 and e2 read f only through z^3: running the series engine at
        # a higher order changes no coefficient they read and no output byte.
        kind, alpha, a2, a3, orders = EXPAND_CASES[name]
        argv = ["expand", "--class", kind, f"--alpha={alpha}", f"--a2={a2}", f"--a3={a3}"]
        spec = ClassSpec(kind, rational(alpha))
        f = SchlichtCoeffs([rational(a2), rational(a3)])
        at_three = functional(spec, f, order=3).coeffs[1:3]
        want = run_cli(argv)
        assert want[0] == cli.EXIT_OK and json.loads(want[1])["match"] is True
        for k in orders:
            runs = []

            def at_order_k(spec, f, order, mode, k=k):
                assert order == 3
                runs.append(functional(spec, f, order=k, mode=mode))
                return runs[-1]

            monkeypatch.setattr(cli, "functional", at_order_k)
            assert run_cli(argv) == want
            assert runs[0].coeffs[1:3] == at_three

    @pytest.mark.parametrize("name", sorted(SLOWEST))
    def test_slowest_inputs_finish_within_10_s(self, name):
        start = time.perf_counter()
        assert run_cli(SLOWEST[name])[0] == cli.EXIT_OK
        assert time.perf_counter() - start < 10

    # The order-64 commands that used to take 5 to 7 s each.
    @pytest.mark.parametrize("argv", [
        BOUND + ["--phi", "strong:1e-1000"],
        ["expand", "--class", "L", "--alpha", "1e-300", "--a2", "1", "--a3", "1"],
    ], ids=["bound_strong_1e-1000", "expand_l_alpha_1e-300"])
    def test_order_flag_is_refused_before_any_work(self, argv, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("a refused command did series work")

        monkeypatch.setattr(cli, "functional", no_work)
        monkeypatch.setattr(cli, "target_preset", no_work)
        assert cli.main(argv + ["--order", "64"]) == cli.EXIT_USAGE
        assert capsys.readouterr() == (
            "", "usage error: unrecognized arguments: --order 64\n")


def _optional(flag, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, v]))


_COUNTS = [str(n) for n in range(-3, 13)]
_RATIONALS = ["0", "1/3", "1/2", "1", "3/2", "-1", "1/0", "x", "1e300", "1e400",
              "1e4301", "1e-4301"]
_TAGS = ["PP", "PM", "PL", "MM", "ML", "LL", "XX"]
_PRESETS = ["caratheodory", "order:1/3", "strong:1/2", "strong:0", "order:1/0", "nope"]
_COEFFS = ["2,2", "1", "1,2", "2,1,1/2", "0,1", "1,x"]
_GRIDS = ["0:1:1/2", "0:0:1", "1:0:1", "0:1:0", "0:1", "0:1:1/0", "a:b:c", "0:1:1/3"]


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    parts = [[command]]
    if command in ("bound", "sweep"):
        parts += [["--pair", draw(st.sampled_from(_TAGS))],
                  ["--alpha", draw(st.sampled_from(_RATIONALS))],
                  ["--beta", draw(st.sampled_from(_RATIONALS))]]
    if command == "audit":
        parts += [["--theorem", draw(st.sampled_from(_TAGS))],
                  ["--grid", draw(st.sampled_from(_GRIDS))],
                  draw(_optional("--tolerance", ["0", "1e-3", "nan", "inf", "-1"]))]
    if command in ("bound", "audit", "sweep"):
        parts += [draw(_optional("--phi", _PRESETS)), draw(_optional("--psi", _PRESETS)),
                  draw(_optional("--phi-coeffs", _COEFFS)),
                  draw(_optional("--psi-coeffs", _COEFFS))]
    if command == "sweep":
        parts += [draw(_optional("--what", ["a2", "a3"])),
                  draw(_optional("--radial-steps", _COUNTS)),
                  draw(_optional("--phase-steps", _COUNTS))]
    if command == "expand":
        parts += [["--class", draw(st.sampled_from(["P", "M", "L", "Q"]))],
                  *(draw(_optional(flag, _RATIONALS))
                    for flag in ("--alpha", "--a2", "--a3"))]
    if command == "verify":
        parts += [draw(_optional("--suite", ["series", "classes", "solver", "bounds"])),
                  draw(_optional("--mode", ["exact", "float"])),
                  draw(_optional("--seed", ["0", "7", "-1"])),
                  ["--samples", str(draw(st.integers(-3, 2)))]]
    parts.append(draw(_optional("--format", ["json", "pretty", "csv", "xml"])))
    return [item for part in parts for item in part]


@settings(max_examples=200, deadline=None)
@given(cli_argv())
def test_fuzzed_argv_exits_with_a_contract_code(argv):
    buffer, errors = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(errors):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    if code == cli.EXIT_USAGE:
        assert buffer.getvalue() == ""
        assert all(len(line) < 200 for line in errors.getvalue().splitlines())


# ----------------------------------------------------------------------
# the one-pass JSON writer against the two-pass reference


def _canonical(value):
    # The reference rounding: nine significant digits, 0.0 for every zero,
    # Fractions as floats, complex numbers as [re, im], tuples as lists.
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        if value == 0:
            return 0.0
        return float(format(value, ".9g"))
    if isinstance(value, Fraction):
        return _canonical(float(value))
    if isinstance(value, complex):
        return [_canonical(value.real), _canonical(value.imag)]
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def _reference_json(payload):
    return json.dumps(_canonical(payload), indent=2) + "\n"


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-10**60, max_value=10**60),
    st.floats(),
    st.sampled_from([0, 0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                     5e-324, 1.7976931348623157e308, 0.1, 1e16, 123456789.5]),
    st.text(),
    st.text(st.characters(max_codepoint=0x3F)),
    st.complex_numbers(),
    st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**9),
)
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_PAYLOADS)
@example({})
@example({"": [], "a": {}, "b": [[], {}, ()], "\u00e9\n\x00\"": {"\x1f\u2028": [True, 1, 1.0]}})
@example([True, False, 1, 0, -0.0, 0.0, math.nan, math.inf, -math.inf, 2**200])
@example({"c": complex(-0.0, math.nan), "f": Fraction(-1, 3), "t": (1, (2, ()))})
# Float texts on both sides of ".9g"'s switch to an exponent, and at the ends
# of the float range.
@example([1e-4, 9.99999999e-5, -1e-4, -9.99999999e-5, 999999999.4, 999999999.6,
          1e9, 1e16, 5e-324, -5e-324, 1.7976931348623157e308])
@example([24.0, 123456789.0, 1234567890123.0, -24.0, 0.5, 1e-4, 1e-4])
# Lists of dicts: one key sequence, a dict with another order or key set, an
# empty first dict, dicts mixed with other values, and an OrderedDict.
@example([{"a": 1.5, "b": [{"c": 1e-4}, {"c": 24.0}]}, {"a": None, "b": []},
          {"a": "x", "b": {"c": 2}}])
@example(({"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 1}, {"a": 1, "b": 2, "c": 3},
          {"a": 1, "b": 2}))
@example([{}, {"a": 1}, {}])
@example([{"a": 1.0}, 2, [{"a": 1.0}], None, {"a": 0.5}, "a", (), {"a": {}}])
@example([{"a": 1, "b": 2}, OrderedDict([("a", 1), ("b", 2)]),
          OrderedDict([("b", 0.25)]), {"a": 3, "b": 4}])
@example([OrderedDict([("a", 1)]), {"a": 2}])
def test_render_json_is_the_reference_bytes(payload):
    assert cli.render_json(payload) == _reference_json(payload)


def test_render_json_on_an_audit_payload():
    args = cli.build_parser().parse_args(
        ["audit", "--theorem", "PM", "--grid", "0:1:1/10", "--psi-coeffs", "2,1"])
    payload, _ = cli._run_audit(args)
    assert cli.render_json(payload) == _reference_json(payload)


@pytest.mark.parametrize("targets", [
    ["--phi", "caratheodory", "--psi", "caratheodory"],
    ["--psi-coeffs", "2,1"],
    # Degenerate rows where a grid reaches alpha = 0 (LL: alpha = beta = 1).
    ["--phi-coeffs", "1,2", "--psi-coeffs", "1,2"],
], ids=["equal", "skewed", "degenerate"])
@pytest.mark.parametrize("grid", ["0:1:1/10", "0:1:1/3", "1/7:1:2/7", "1/3:1/3:1"])
@pytest.mark.parametrize("tag", ["PP", "PM", "PL", "MM", "ML", "LL"])
def test_render_json_on_audit_payloads(tag, grid, targets):
    args = cli.build_parser().parse_args(
        ["audit", "--theorem", tag, "--grid", grid, *targets])
    payload, _ = cli._run_audit(args)
    assert cli.render_json(payload) == _reference_json(payload)


def _hand_report(alpha, discrepancies, **values):
    fields = dict(theorem="LL", alpha=alpha, beta=0.5, phi=(2.0, -0.0), psi=(),
                  sigma_printed=1.0, sigma_derived=1.0, sigma_tilde=-0.0,
                  a2_printed=None, a2_generic=None, a3_printed=None,
                  a3_generic=None, degenerate=True, discrepancies=(),
                  notes=("a note",))
    fields.update(values)
    witness = dict(alpha=alpha, beta=0.5, B1=2.0, B2=-0.0, D1=math.inf, D2=math.nan)
    fields["discrepancies"] = tuple(
        Discrepancy(field, printed, derived, **witness)
        for field, printed, derived in discrepancies)
    return BoundReport(**fields)


def test_render_json_on_hand_built_reports():
    # Rows that hold None, NaN, infinities and -0.0, and a row with three
    # discrepancies, in the audit's row shape and in bound's.
    reports = [
        _hand_report(0.0, []),
        _hand_report(-0.0, [("sigma", math.nan, -0.0), ("a2", math.inf, -math.inf),
                            ("a3", 1e-4, 9.99999999e-5)],
                     sigma_printed=math.nan, a2_printed=math.inf,
                     a2_generic=-math.inf, a3_printed=-0.0, a3_generic=24.0,
                     degenerate=False),
        _hand_report(1e16, [("a2", 5e-324, 1.7976931348623157e308)],
                     a3_printed=123456789.0),
    ]
    payload = {"reports": [cli._report_record(rep, cli._AUDIT_ROW_FIELDS)
                           for rep in reports],
               "bound": [cli._report_record(rep) for rep in reports]}
    assert cli.render_json(payload) == _reference_json(payload)


# The sweeps whose goldens the no-numpy probe compares with.
_SWEEP_GOLDENS = ("sweep.json", "sweep_a3_fine_skewed.json")

# Every command, verify in both modes, and the default and the fine sweep.
_COMMAND_ARGVS = [
    ["bound", "--pair", "PL", "--alpha", "1/2", "--beta", "1/3"],
    ["audit", "--theorem", "LL", "--grid", "0:1:1/2", "--psi-coeffs", "2,1"],
    ["expand", "--class", "L", "--alpha", "1/2", "--a2", "1", "--a3", "2"],
    ["table"],
    ["verify", "--suite", "all", "--samples", "2"],
    ["verify", "--suite", "all", "--samples", "2", "--mode", "float"],
    *(PINNED[name] for name in _SWEEP_GOLDENS),
]

# Runs in a fresh interpreter, so nothing the test run imported is loaded.
# numpy is hidden, as if only the package without extras were installed.
_RUNTIME_PROBE = f"""
import contextlib, io, json, sys
before = set(sys.modules)
sys.modules["numpy"] = None
from bibounds import cli
codes, outputs = [], []
for argv in {_COMMAND_ARGVS!r}:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        codes.append(cli.main(argv))
    outputs.append(out.getvalue())
loaded = {{name.split(".")[0] for name, module in sys.modules.items()
          if module is not None and name not in before}}
print(json.dumps([codes, sorted(loaded - set(sys.stdlib_module_names) - {{"bibounds"}}),
                  outputs[-{len(_SWEEP_GOLDENS)}:]]))
"""


def _fresh_env():
    # A fresh interpreter that imports this checkout's bibounds.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_six_commands_need_no_third_party_package():
    proc = subprocess.run([sys.executable, "-c", _RUNTIME_PROBE],
                          capture_output=True, text=True, env=_fresh_env(), check=True)
    codes, loaded, sweeps = json.loads(proc.stdout)
    assert (codes, loaded) == ([0] * len(_COMMAND_ARGVS), [])
    assert sweeps == [(GOLDEN / name).read_text() for name in _SWEEP_GOLDENS]


_LAZY_NUMPY_PROBE = f"""
import contextlib, io, sys
import bibounds, bibounds.cli
from bibounds import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in {_COMMAND_ARGVS!r}]
    with contextlib.redirect_stderr(io.StringIO()):  # a rejected sweep
        codes.append(cli.main(["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0",
                               "--phase-steps", "3"]))
print(codes, "numpy" in sys.modules)
"""


# Run with -I, so PYTHONPATH is ignored and the checkout's src goes first.
_NO_DATACLASSES_PROBE = f"""
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parents[1] / "src")!r})
import bibounds.cli
print("dataclasses" in sys.modules)
"""


def test_cli_import_leaves_dataclasses_unloaded():
    proc = subprocess.run([sys.executable, "-I", "-c", _NO_DATACLASSES_PROBE],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_no_command_loads_numpy():
    proc = subprocess.run([sys.executable, "-c", _LAZY_NUMPY_PROBE],
                          capture_output=True, text=True, env=_fresh_env(), check=True)
    assert proc.stdout == f"{[0] * len(_COMMAND_ARGVS) + [1]} False\n"


# Usage errors (from argparse and from the library), every exit code and
# every output format, for a process that builds its parser once.
_INTERLEAVED = [
    ["bound", "--pair", "PM", "--alpha", "1/2", "--beta", "0", "--psi-coeffs", "2,1"],
    ["audit", "--theorem", "QQ", "--grid", "0:1:1/2"],
    ["audit", "--theorem", "LL", "--grid", "0:1:1/2", "--format", "csv"],
    ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0", "--format", "csv"],
    ["verify", "--suite", "bounds", "--samples", "3", "--format", "pretty"],
    ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0",
     "--phi-coeffs", "1,2", "--psi-coeffs", "1,2"],
    [],
    ["audit", "--theorem", "PM", "--grid", "0:1:1/2", "--psi-coeffs", "2,1",
     "--format", "pretty"],
    ["verify", "--samples", "0"],
    ["bound", "--pair", "LL", "--alpha", "1", "--beta", "1", "--format", "pretty"],
    ["audit", "--theorem", "PP", "--grid", "0:1:1/2", "--tolerance", "-1"],
    ["verify", "--suite", "solver", "--seed", "3", "--samples", "2"],
]


def test_one_parser_serves_interleaved_commands():
    alone = []
    for argv in _INTERLEAVED:
        proc = subprocess.run([sys.executable, "-m", "bibounds", *argv],
                              capture_output=True, text=True, env=_fresh_env())
        alone.append((proc.stdout, proc.stderr, proc.returncode))
    assert {code for _, _, code in alone} == {0, 1, 2}
    order = list(range(len(_INTERLEAVED)))
    for index in order + order[::-1]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(_INTERLEAVED[index]))
        assert (out.getvalue(), err.getvalue(), code) == alone[index], _INTERLEAVED[index]
    assert cli.build_parser() is cli.build_parser()
