import io
import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibounds import cli
from bibounds.bounds import BoundReport, Discrepancy
from bibounds.harness import MAX_SAMPLES, CheckResult

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
    ("PP", "a2", "default", "caratheodory", "json"): "9afad35cab0e9d1e9b8a804be289e0bc5be36e158c2b4c6cb0a3355329cf2977",
    ("PP", "a2", "default", "caratheodory", "csv"): "20939d3a2e61c79948b3a3de3df5973e6bfed4d0471f522f3149dc1b574136fb",
    ("PP", "a2", "default", "caratheodory", "pretty"): "a55d81e8eb45549c48a44cd61283da9b2d29352dcd86e71e893b0404b7eb032a",
    ("PP", "a2", "default", "order:1/3", "json"): "fb779ff57da3cddbc848a12e0baf654e9b753f7fbe3c72e1c6b89f5a684d9046",
    ("PP", "a2", "default", "order:1/3", "csv"): "7f8886d50ec77513c34287787e24abc1df0e48b2aaba68d6c80ae95b166576d9",
    ("PP", "a2", "default", "order:1/3", "pretty"): "a3748597af62d3b0d4ed95abc9e563519b32ec66402a1ced158f85c12ef40d74",
    ("PP", "a2", "default", "skewed", "json"): "a62e7f4bc7550b77397753708d657c2b283b86593b9d01bdd56421bd46b941cc",
    ("PP", "a2", "default", "skewed", "csv"): "d439d82584823a9be4b19767b94ca9a93a5022aa9f996dc5cd457acb1586e0ea",
    ("PP", "a2", "default", "skewed", "pretty"): "54cb604b791bf36586cdb2fec00e24056b01576f384613642eb2aac568abb40b",
    ("PP", "a2", "fine", "caratheodory", "json"): "dad879819f2c83843d5ffa7cc4053bb4a424af2289f9467d4bbe44d7d68e95e1",
    ("PP", "a2", "fine", "caratheodory", "csv"): "20939d3a2e61c79948b3a3de3df5973e6bfed4d0471f522f3149dc1b574136fb",
    ("PP", "a2", "fine", "caratheodory", "pretty"): "a55d81e8eb45549c48a44cd61283da9b2d29352dcd86e71e893b0404b7eb032a",
    ("PP", "a2", "fine", "order:1/3", "json"): "1a617f7de50c85e738a56db1d81b0cb0c9ee8c157ac12858ff521e00e768ff79",
    ("PP", "a2", "fine", "order:1/3", "csv"): "7f8886d50ec77513c34287787e24abc1df0e48b2aaba68d6c80ae95b166576d9",
    ("PP", "a2", "fine", "order:1/3", "pretty"): "a3748597af62d3b0d4ed95abc9e563519b32ec66402a1ced158f85c12ef40d74",
    ("PP", "a2", "fine", "skewed", "json"): "94d465d795708a4beab3673daf0a5a83a8c01040cef1eb1cd89e3a49df1fd9a1",
    ("PP", "a2", "fine", "skewed", "csv"): "d439d82584823a9be4b19767b94ca9a93a5022aa9f996dc5cd457acb1586e0ea",
    ("PP", "a2", "fine", "skewed", "pretty"): "54cb604b791bf36586cdb2fec00e24056b01576f384613642eb2aac568abb40b",
    ("PP", "a3", "default", "caratheodory", "json"): "d8fbfeecf4bef9d1efe74ddc19f4e5dfd8c981e5c42e211547609982aa42e6d2",
    ("PP", "a3", "default", "caratheodory", "csv"): "5406b3e25b658256806f7dd427513e240a80ac0cf4e0657d97be167e714300bc",
    ("PP", "a3", "default", "caratheodory", "pretty"): "9d38cf0dc226ba5ebde0e9ca4c6cd5e330c9a1ec667ddbb615e39baed44ef0bb",
    ("PP", "a3", "default", "order:1/3", "json"): "fd7e857271daf92cb2108d0e092910c2804f4ecb5e598104ab97adfedf88fb4b",
    ("PP", "a3", "default", "order:1/3", "csv"): "7ff65c85e26f47e7a3a900dfce0b1b97fbb35d46d1d1a3d247c1e1ff732efb08",
    ("PP", "a3", "default", "order:1/3", "pretty"): "4abb049a77557ef67606fe3d45c7f3bb771d2b30b219810b181322ad18a1d968",
    ("PP", "a3", "default", "skewed", "json"): "a393ee777fe48b6e1dc8c520451bbbf07793c7abebfb1be35403803aacabfaea",
    ("PP", "a3", "default", "skewed", "csv"): "7ca4e62aa236729201941f9bf1ccfe9e8d0aa6557c86e48b0b0410c56fa091d2",
    ("PP", "a3", "default", "skewed", "pretty"): "7f0202873e8d0c5f3b9554707bb7ab33a2ea36ac9f90e5a0f532bb55fa3d53ac",
    ("PP", "a3", "fine", "caratheodory", "json"): "da19fadec8a8caa633b9a91f75761553d601f7f98856a3f45f8e1721ddbec2bd",
    ("PP", "a3", "fine", "caratheodory", "csv"): "5406b3e25b658256806f7dd427513e240a80ac0cf4e0657d97be167e714300bc",
    ("PP", "a3", "fine", "caratheodory", "pretty"): "9d38cf0dc226ba5ebde0e9ca4c6cd5e330c9a1ec667ddbb615e39baed44ef0bb",
    ("PP", "a3", "fine", "order:1/3", "json"): "46460a2468cf966a1db47b15088a911abe35056585b54116eb6e5766a3783e21",
    ("PP", "a3", "fine", "order:1/3", "csv"): "7ff65c85e26f47e7a3a900dfce0b1b97fbb35d46d1d1a3d247c1e1ff732efb08",
    ("PP", "a3", "fine", "order:1/3", "pretty"): "4abb049a77557ef67606fe3d45c7f3bb771d2b30b219810b181322ad18a1d968",
    ("PP", "a3", "fine", "skewed", "json"): "38e2a730217157acccfcc0bcf065b2f318779f763acc8234f6df37f7f9c7ed26",
    ("PP", "a3", "fine", "skewed", "csv"): "7ca4e62aa236729201941f9bf1ccfe9e8d0aa6557c86e48b0b0410c56fa091d2",
    ("PP", "a3", "fine", "skewed", "pretty"): "7f0202873e8d0c5f3b9554707bb7ab33a2ea36ac9f90e5a0f532bb55fa3d53ac",
    ("PM", "a2", "default", "caratheodory", "json"): "8555cc3c8a39a8b325b458868ddbf4c930da6faa48dfa1e4a8e4f5cb95f40f3d",
    ("PM", "a2", "default", "caratheodory", "csv"): "fb405a946e5f46b3d1faf91a4000d815d7c2278b994b5f0f462d0a2a24cc387b",
    ("PM", "a2", "default", "caratheodory", "pretty"): "197ae94e7fa06e39179c79e475ad060568701bbe7e23f40a9948925f354c1061",
    ("PM", "a2", "default", "order:1/3", "json"): "ecf243b45e14701c54d0dd2bbb11dfe5351376597a052e5304824f376e6f0f05",
    ("PM", "a2", "default", "order:1/3", "csv"): "8670527790eb348d17d10f3159253b1efb225c351dfd0e9bfd313bc506e00abf",
    ("PM", "a2", "default", "order:1/3", "pretty"): "525664df7b3aeb0b98142e2b4fe6d91cb0e05460ca884559097b9e0091d62257",
    ("PM", "a2", "default", "skewed", "json"): "b6d475ecdca6c4f3ce4595191eeb719330744f162bd1ab2349df49b884a5f9ea",
    ("PM", "a2", "default", "skewed", "csv"): "130474a3c8ff68b1c4a338be5c06fd8318b24d816ba0bb2053a3f3c36017a0fe",
    ("PM", "a2", "default", "skewed", "pretty"): "4c018b1a4147b36c7431b86bffc6086ab8d7298d2220fece044a9ddf042ec0a0",
    ("PM", "a2", "fine", "caratheodory", "json"): "4f5c48201ebbe79187d6131888dd256c00efd55dc6317f191f67bc7a3604ed05",
    ("PM", "a2", "fine", "caratheodory", "csv"): "fb405a946e5f46b3d1faf91a4000d815d7c2278b994b5f0f462d0a2a24cc387b",
    ("PM", "a2", "fine", "caratheodory", "pretty"): "197ae94e7fa06e39179c79e475ad060568701bbe7e23f40a9948925f354c1061",
    ("PM", "a2", "fine", "order:1/3", "json"): "0b513f3b362ebbb437c1e37f92c20d98f57b9e82e9262c1174962f42fd39aa45",
    ("PM", "a2", "fine", "order:1/3", "csv"): "8670527790eb348d17d10f3159253b1efb225c351dfd0e9bfd313bc506e00abf",
    ("PM", "a2", "fine", "order:1/3", "pretty"): "525664df7b3aeb0b98142e2b4fe6d91cb0e05460ca884559097b9e0091d62257",
    ("PM", "a2", "fine", "skewed", "json"): "ee18dc9bc53b07deb8fbc37b9db6af38575fae1308a9f0c65f6ea0ed22feab1c",
    ("PM", "a2", "fine", "skewed", "csv"): "130474a3c8ff68b1c4a338be5c06fd8318b24d816ba0bb2053a3f3c36017a0fe",
    ("PM", "a2", "fine", "skewed", "pretty"): "4c018b1a4147b36c7431b86bffc6086ab8d7298d2220fece044a9ddf042ec0a0",
    ("PM", "a3", "default", "caratheodory", "json"): "7c9e35789f56de4dc4d18ed353334fcb3a790af4eebd204555fba074376eca7e",
    ("PM", "a3", "default", "caratheodory", "csv"): "5f20cb057d0c3f10701f409527cee8af1b8d0c17281b9f5a1c6dc0d14c6ff40e",
    ("PM", "a3", "default", "caratheodory", "pretty"): "908bf7f83d1f621cd8c6c19d4f9686a7f2d17c6d3088067ebafd957a557fbffe",
    ("PM", "a3", "default", "order:1/3", "json"): "a668d91ceaf839f389f937e217ef5d90e69685874c76712575d5eb32919f9941",
    ("PM", "a3", "default", "order:1/3", "csv"): "f190b9a929dce3f447d79b18a49672cabbd9e1b8516973499865fd8cde8afd5f",
    ("PM", "a3", "default", "order:1/3", "pretty"): "ef29735833e4a06200184742cb42690ba1afa8386b0c7c64cde5d4d0badbdfa1",
    ("PM", "a3", "default", "skewed", "json"): "ad2bf7353060bf3af2dfdfa659099b130b120ef2cb18b7fc6ec1a74e6c44616b",
    ("PM", "a3", "default", "skewed", "csv"): "5cb5c43cc53a03fc29de27d72692edca47b743c2e4de1b53099475baed0fd5da",
    ("PM", "a3", "default", "skewed", "pretty"): "efe7a84d7c4c34d11d8901ed5e5bf09315c327295e86805a4c53b97399765eb2",
    ("PM", "a3", "fine", "caratheodory", "json"): "949059a8ace3585a5b1591f066be86a93b96ea6cbd75a2cd277024708548daa0",
    ("PM", "a3", "fine", "caratheodory", "csv"): "5f20cb057d0c3f10701f409527cee8af1b8d0c17281b9f5a1c6dc0d14c6ff40e",
    ("PM", "a3", "fine", "caratheodory", "pretty"): "908bf7f83d1f621cd8c6c19d4f9686a7f2d17c6d3088067ebafd957a557fbffe",
    ("PM", "a3", "fine", "order:1/3", "json"): "ef50f0ecce3845528e0a968af07a8084a1e998589db77b93c9fdec98a46d7286",
    ("PM", "a3", "fine", "order:1/3", "csv"): "f190b9a929dce3f447d79b18a49672cabbd9e1b8516973499865fd8cde8afd5f",
    ("PM", "a3", "fine", "order:1/3", "pretty"): "ef29735833e4a06200184742cb42690ba1afa8386b0c7c64cde5d4d0badbdfa1",
    ("PM", "a3", "fine", "skewed", "json"): "0347d66aa66a2d3d2607d1c4179e920b875f8230459d08dffcd8cb8b16786809",
    ("PM", "a3", "fine", "skewed", "csv"): "5cb5c43cc53a03fc29de27d72692edca47b743c2e4de1b53099475baed0fd5da",
    ("PM", "a3", "fine", "skewed", "pretty"): "efe7a84d7c4c34d11d8901ed5e5bf09315c327295e86805a4c53b97399765eb2",
    ("PL", "a2", "default", "caratheodory", "json"): "e14ecb4e97a55a81915c8e8f224e128b6e8fee41531879ad673914b157ba75c1",
    ("PL", "a2", "default", "caratheodory", "csv"): "c0b894ccbbeb38e308ba36cb7ae718c56e77e979defd0174ad2153d4238bbe98",
    ("PL", "a2", "default", "caratheodory", "pretty"): "1f90ef8b5008960002179b5bcc306faff3ee6ed22163f6fdb8fbfbe83458f4c5",
    ("PL", "a2", "default", "order:1/3", "json"): "5bd95bbdacd347de295422521d3340d9077511fd1414c71717ee752c3fd712c1",
    ("PL", "a2", "default", "order:1/3", "csv"): "fe041f379a20469c94d19302cd86c049d0545bd39a017b4f574f56618cd2b60a",
    ("PL", "a2", "default", "order:1/3", "pretty"): "fb6d1ba4964885fa8599bb473b3d869df6b0a1bac087c2173ceb84505a5ca477",
    ("PL", "a2", "default", "skewed", "json"): "8414ac4c2185c97b0887c0b6a0ce559c9f82074594e8469e57777c21e7f01e0c",
    ("PL", "a2", "default", "skewed", "csv"): "fcfd1b72a1cafa1fc9db45c8f70caae2a958886ec1b4313440ab21a59104bf4c",
    ("PL", "a2", "default", "skewed", "pretty"): "a78134b1cf1da35b50735f3a129bb8ba23a051eb59b028df579923ddd0df4cba",
    ("PL", "a2", "fine", "caratheodory", "json"): "20fec127e11c5ec54399c8ea205b7b583386a826eb159d87ceee04463c4165ac",
    ("PL", "a2", "fine", "caratheodory", "csv"): "c0b894ccbbeb38e308ba36cb7ae718c56e77e979defd0174ad2153d4238bbe98",
    ("PL", "a2", "fine", "caratheodory", "pretty"): "1f90ef8b5008960002179b5bcc306faff3ee6ed22163f6fdb8fbfbe83458f4c5",
    ("PL", "a2", "fine", "order:1/3", "json"): "fa5f8bbabc4b292732b18daa3a62530ef8faa2cbea7a143f829cb3bd4a2ec8f3",
    ("PL", "a2", "fine", "order:1/3", "csv"): "fe041f379a20469c94d19302cd86c049d0545bd39a017b4f574f56618cd2b60a",
    ("PL", "a2", "fine", "order:1/3", "pretty"): "fb6d1ba4964885fa8599bb473b3d869df6b0a1bac087c2173ceb84505a5ca477",
    ("PL", "a2", "fine", "skewed", "json"): "04d8819b5254849cfb3e7e1fddebbe7c9e23c9cb8c80f8a219d80290702b1be6",
    ("PL", "a2", "fine", "skewed", "csv"): "fcfd1b72a1cafa1fc9db45c8f70caae2a958886ec1b4313440ab21a59104bf4c",
    ("PL", "a2", "fine", "skewed", "pretty"): "a78134b1cf1da35b50735f3a129bb8ba23a051eb59b028df579923ddd0df4cba",
    ("PL", "a3", "default", "caratheodory", "json"): "8b605b67e4f8f3ed83e740db0830a441592cf708cba322ce765a7fe688f884e4",
    ("PL", "a3", "default", "caratheodory", "csv"): "dbc5e4f8b7ef8284550084e1137250fe8fe03a9ce8ee05d6b83c2a4399c56922",
    ("PL", "a3", "default", "caratheodory", "pretty"): "f11fa85ccfe0a6b69229704935194bdbb30185be1ae84f9eb757fcc241307e2f",
    ("PL", "a3", "default", "order:1/3", "json"): "a3b71d3cad18ae163d65938adb3ee410e1fc285334448ce3969a28bda11b9260",
    ("PL", "a3", "default", "order:1/3", "csv"): "37f9997eebcd8f0fee038bfa067190b4e8e59d461dc791b0dda5b8dec4ce2e4d",
    ("PL", "a3", "default", "order:1/3", "pretty"): "6b079663f6e02ce5750ad44de3433ebd416b32e3cb802a3caf4fb093560fb4ee",
    ("PL", "a3", "default", "skewed", "json"): "3d038f0fa7ee4d0765cf6752921a68da505d993bb439fe1d06965effbdde1c30",
    ("PL", "a3", "default", "skewed", "csv"): "ccf93689cc7acc32482f9ca7e3739042898bcb245b62315a6017f613146fc218",
    ("PL", "a3", "default", "skewed", "pretty"): "c22e7ce3fe5e7126944a000afad1bf457980c803e939807df7d16f786501951b",
    ("PL", "a3", "fine", "caratheodory", "json"): "a8a9e1db3ffc7c86bf54aab43bfb33feee6e8981ba75ab9db1af97732303cbad",
    ("PL", "a3", "fine", "caratheodory", "csv"): "dbc5e4f8b7ef8284550084e1137250fe8fe03a9ce8ee05d6b83c2a4399c56922",
    ("PL", "a3", "fine", "caratheodory", "pretty"): "f11fa85ccfe0a6b69229704935194bdbb30185be1ae84f9eb757fcc241307e2f",
    ("PL", "a3", "fine", "order:1/3", "json"): "d660eb20492c5bdfa796eeafc91f2d1b3d46ce3067f1300bd19676b8f7fe6464",
    ("PL", "a3", "fine", "order:1/3", "csv"): "37f9997eebcd8f0fee038bfa067190b4e8e59d461dc791b0dda5b8dec4ce2e4d",
    ("PL", "a3", "fine", "order:1/3", "pretty"): "6b079663f6e02ce5750ad44de3433ebd416b32e3cb802a3caf4fb093560fb4ee",
    ("PL", "a3", "fine", "skewed", "json"): "cf1228af8329a92a9ce41ac530cb45b2c453654b794d85b33e07a2d921dba925",
    ("PL", "a3", "fine", "skewed", "csv"): "ccf93689cc7acc32482f9ca7e3739042898bcb245b62315a6017f613146fc218",
    ("PL", "a3", "fine", "skewed", "pretty"): "c22e7ce3fe5e7126944a000afad1bf457980c803e939807df7d16f786501951b",
    ("MM", "a2", "default", "caratheodory", "json"): "1ae8b1c5bc4b408434ff82eb8ce8a8a59fcd14c40cdb6f8e4ecfe1f7f7ce6594",
    ("MM", "a2", "default", "caratheodory", "csv"): "ed0389263a2c4945b6b309870d1796c0297d22b90b0fc9f5fde83ef022d30cc5",
    ("MM", "a2", "default", "caratheodory", "pretty"): "072b729ae6cc54a97615e75159484e9b705d33c571b364066ceb5476591ffea8",
    ("MM", "a2", "default", "order:1/3", "json"): "c86dc53ef45d53f64735f89dc77312a95ef70fc831305f78304dab2a60f471c3",
    ("MM", "a2", "default", "order:1/3", "csv"): "cb9538388886addc3024440484280d8f4588a0a4fdc1b47c23c715f95d76cb45",
    ("MM", "a2", "default", "order:1/3", "pretty"): "9659bde62b64278c904b38b6156fa337e6b7db4a5a8dfa055550b8f92de8ff4f",
    ("MM", "a2", "default", "skewed", "json"): "abfbc7f2b2496a2e31db9d2b2933e31ec57b7ff6185dc5b09a3ca0f683c3dcec",
    ("MM", "a2", "default", "skewed", "csv"): "0ddbe6b0795812f52f7a603f0bc8d3d6f5b6d9a52eb3071041f747e86881c0ff",
    ("MM", "a2", "default", "skewed", "pretty"): "7978c5b8a0fe541b87da36bcc1a70f7226525cf3834544ae1ffa8459b3863605",
    ("MM", "a2", "fine", "caratheodory", "json"): "77387c720759bea7193062aceddbc0849d9236d9242a613ef8c3b312411f57af",
    ("MM", "a2", "fine", "caratheodory", "csv"): "ed0389263a2c4945b6b309870d1796c0297d22b90b0fc9f5fde83ef022d30cc5",
    ("MM", "a2", "fine", "caratheodory", "pretty"): "072b729ae6cc54a97615e75159484e9b705d33c571b364066ceb5476591ffea8",
    ("MM", "a2", "fine", "order:1/3", "json"): "84d9e1054552a6ff5a655e718cc747dc4d4f4e56b4c7c4fd718b2be9a4c3f666",
    ("MM", "a2", "fine", "order:1/3", "csv"): "cb9538388886addc3024440484280d8f4588a0a4fdc1b47c23c715f95d76cb45",
    ("MM", "a2", "fine", "order:1/3", "pretty"): "9659bde62b64278c904b38b6156fa337e6b7db4a5a8dfa055550b8f92de8ff4f",
    ("MM", "a2", "fine", "skewed", "json"): "b47468f54fa50211b3941a1b7dade4585b1b3c5ab9da219c5dfc07170b87d3c4",
    ("MM", "a2", "fine", "skewed", "csv"): "0ddbe6b0795812f52f7a603f0bc8d3d6f5b6d9a52eb3071041f747e86881c0ff",
    ("MM", "a2", "fine", "skewed", "pretty"): "7978c5b8a0fe541b87da36bcc1a70f7226525cf3834544ae1ffa8459b3863605",
    ("MM", "a3", "default", "caratheodory", "json"): "61e641a5fc11bb6716853b92d3c5a3b7901ef0557e386fadb9afdb21d9896145",
    ("MM", "a3", "default", "caratheodory", "csv"): "fcb4733ea329e94511bb88ca4c1ba5485643b47cb6024208f6f3f432f1c1ee7d",
    ("MM", "a3", "default", "caratheodory", "pretty"): "ca0706e600f55312813479ab1647df44f5879b5fe1cdbf4b60d59c294cd59d06",
    ("MM", "a3", "default", "order:1/3", "json"): "2ab94d815c4668b13e3ee4dd389da421f961e1cce1b479a2198fd7064636ed80",
    ("MM", "a3", "default", "order:1/3", "csv"): "4e81fcc0c2a01ec22586dcd1915a9db66220d6671b7afc790c02fabc6d5a3944",
    ("MM", "a3", "default", "order:1/3", "pretty"): "d50e7dfd0c0aa3e00f56969fa478f48a7db0892ad63d1ba577bf92ba24bdbbb1",
    ("MM", "a3", "default", "skewed", "json"): "71bdc7c4d89f01b69919ca130ed4e5f3fd345223380f40a2cb6905524daa87f5",
    ("MM", "a3", "default", "skewed", "csv"): "1dd624a17ece1cd8b70778d03a26703f59a3cc5a97087d10d45b6a0edfd0ddf4",
    ("MM", "a3", "default", "skewed", "pretty"): "bdd0db3be23e1902fb8dd331d070ab60ebb367fd18b0b845b508f979df1a3c5d",
    ("MM", "a3", "fine", "caratheodory", "json"): "4d7c545367d35ed6a3ad322bb6177508e841cb4149965e2eba028247e3a4a36c",
    ("MM", "a3", "fine", "caratheodory", "csv"): "fcb4733ea329e94511bb88ca4c1ba5485643b47cb6024208f6f3f432f1c1ee7d",
    ("MM", "a3", "fine", "caratheodory", "pretty"): "ca0706e600f55312813479ab1647df44f5879b5fe1cdbf4b60d59c294cd59d06",
    ("MM", "a3", "fine", "order:1/3", "json"): "fb79b4aa5336b77970a39b21809a82e13198671fa2b102f0f3a689a009e59b77",
    ("MM", "a3", "fine", "order:1/3", "csv"): "4e81fcc0c2a01ec22586dcd1915a9db66220d6671b7afc790c02fabc6d5a3944",
    ("MM", "a3", "fine", "order:1/3", "pretty"): "d50e7dfd0c0aa3e00f56969fa478f48a7db0892ad63d1ba577bf92ba24bdbbb1",
    ("MM", "a3", "fine", "skewed", "json"): "29904eb45faf98691bcedba7beb765b8c2aa6ffbab3bcc585d23821e44258af0",
    ("MM", "a3", "fine", "skewed", "csv"): "1dd624a17ece1cd8b70778d03a26703f59a3cc5a97087d10d45b6a0edfd0ddf4",
    ("MM", "a3", "fine", "skewed", "pretty"): "bdd0db3be23e1902fb8dd331d070ab60ebb367fd18b0b845b508f979df1a3c5d",
    ("ML", "a2", "default", "caratheodory", "json"): "83c1c3251d49022436a9dd0f98d778fc697d29b82c426b9f49c37fa04da29f7a",
    ("ML", "a2", "default", "caratheodory", "csv"): "bd33daf4ec0ae6290a5a51e163ce985febbad41e2bc8cbab56d5e802572e6a3d",
    ("ML", "a2", "default", "caratheodory", "pretty"): "f37413e076d18f998b789a20950a1389f67297afe1de065fd606f2eca86dadf5",
    ("ML", "a2", "default", "order:1/3", "json"): "8d66919e8e7e681189bdd2f9fbf116e04bab2946b68d46fabb2a0cb68f260cb2",
    ("ML", "a2", "default", "order:1/3", "csv"): "e40fcd8e0843c0c0c1455d35bd7ba83254edf2211d327f8e0cb7ca0f60dd3c19",
    ("ML", "a2", "default", "order:1/3", "pretty"): "32dcb74b8d1d62e45244d754bfa3e5d24aa55504fa96060022c86ec22977f119",
    ("ML", "a2", "default", "skewed", "json"): "2bfaa4eeb59296d9dc771c4ace57b0afb27744751792227eb44b5ed5267933fa",
    ("ML", "a2", "default", "skewed", "csv"): "8516e4ab692c9b455215937e34f4f6340d5678d2256e072babbb13738f7960a0",
    ("ML", "a2", "default", "skewed", "pretty"): "5951546ba150532516b54c0e7c83abdcf53c86a08dd4d0a7c9aac0dc5d2d97a5",
    ("ML", "a2", "fine", "caratheodory", "json"): "d0f59ac6c242786b1b2983d07867ae9376f3e373d200ad58ac07cd185ec2de57",
    ("ML", "a2", "fine", "caratheodory", "csv"): "bd33daf4ec0ae6290a5a51e163ce985febbad41e2bc8cbab56d5e802572e6a3d",
    ("ML", "a2", "fine", "caratheodory", "pretty"): "f37413e076d18f998b789a20950a1389f67297afe1de065fd606f2eca86dadf5",
    ("ML", "a2", "fine", "order:1/3", "json"): "59179f5895c74602f0ad9d6f23cf0c81d3632839a3e5e575b68fb88940055cf5",
    ("ML", "a2", "fine", "order:1/3", "csv"): "e40fcd8e0843c0c0c1455d35bd7ba83254edf2211d327f8e0cb7ca0f60dd3c19",
    ("ML", "a2", "fine", "order:1/3", "pretty"): "32dcb74b8d1d62e45244d754bfa3e5d24aa55504fa96060022c86ec22977f119",
    ("ML", "a2", "fine", "skewed", "json"): "c6047cbe86532ca3fb4d229a2bc38a78c32634e9f45458f05005056505a78882",
    ("ML", "a2", "fine", "skewed", "csv"): "8516e4ab692c9b455215937e34f4f6340d5678d2256e072babbb13738f7960a0",
    ("ML", "a2", "fine", "skewed", "pretty"): "5951546ba150532516b54c0e7c83abdcf53c86a08dd4d0a7c9aac0dc5d2d97a5",
    ("ML", "a3", "default", "caratheodory", "json"): "6b03efa3749b2cb35fcea14064a46e69be0abab683536308dc95a0ba029a3429",
    ("ML", "a3", "default", "caratheodory", "csv"): "cd4c1d207ebbeef42edc797813e8376cef918d64587d7b4df30fcf9b888677bb",
    ("ML", "a3", "default", "caratheodory", "pretty"): "23e6380bf82d43540b41d482be7e3ef6bc1c80864ffedd1c21a5c8275c759f12",
    ("ML", "a3", "default", "order:1/3", "json"): "e119353cd726a2176dc969f1afcceac7c0b95aab7ba518ac8dbe60b8e7300f31",
    ("ML", "a3", "default", "order:1/3", "csv"): "52367ef6a4450b6f6aafefdf4d551c7a5e6285923e806876ca5cbe5c61a6c820",
    ("ML", "a3", "default", "order:1/3", "pretty"): "296845083cfdeb54d30416aae2f0f39bb8ce067a141417e2c0e70060ffa4caff",
    ("ML", "a3", "default", "skewed", "json"): "65ac61c2c4a443e07399f7ac46c19879a66b1dab6d2c215939141ba58a40a6a2",
    ("ML", "a3", "default", "skewed", "csv"): "920f5c3164041f1220fd0bc41e45dccf7618804ec2f9c383bd28a6d137c47fbc",
    ("ML", "a3", "default", "skewed", "pretty"): "b6f7a35cdec00cbd363667c889032a4d044f78d38ad67b55bf5eebace88906a4",
    ("ML", "a3", "fine", "caratheodory", "json"): "d4fe3b8295b724fc4ed5da5671184f63f0f9f58dc7658c6fd2c93290508105d0",
    ("ML", "a3", "fine", "caratheodory", "csv"): "cd4c1d207ebbeef42edc797813e8376cef918d64587d7b4df30fcf9b888677bb",
    ("ML", "a3", "fine", "caratheodory", "pretty"): "23e6380bf82d43540b41d482be7e3ef6bc1c80864ffedd1c21a5c8275c759f12",
    ("ML", "a3", "fine", "order:1/3", "json"): "6fcf60c8681cfcf04d7e3e4478a65e7be750b40b8ba0293b586ac4568fe4038d",
    ("ML", "a3", "fine", "order:1/3", "csv"): "52367ef6a4450b6f6aafefdf4d551c7a5e6285923e806876ca5cbe5c61a6c820",
    ("ML", "a3", "fine", "order:1/3", "pretty"): "296845083cfdeb54d30416aae2f0f39bb8ce067a141417e2c0e70060ffa4caff",
    ("ML", "a3", "fine", "skewed", "json"): "1ee2542788b18dd9f042ed2a558f08f1f95fe9a8585b54b6a70fc5116de6f00a",
    ("ML", "a3", "fine", "skewed", "csv"): "920f5c3164041f1220fd0bc41e45dccf7618804ec2f9c383bd28a6d137c47fbc",
    ("ML", "a3", "fine", "skewed", "pretty"): "b6f7a35cdec00cbd363667c889032a4d044f78d38ad67b55bf5eebace88906a4",
    ("LL", "a2", "default", "caratheodory", "json"): "01042ac84ba0ed144a2b00223d34b42d772e3ee9890c3b808e5960deac4dbb75",
    ("LL", "a2", "default", "caratheodory", "csv"): "ed934e107be09026312f20ddbca57cf8c09ba0c6c2031b738e831450a1a5265e",
    ("LL", "a2", "default", "caratheodory", "pretty"): "f8ff138ae053bdf7318df8281a7fa4af60df3348e292373e68fbf56d9d8ca124",
    ("LL", "a2", "default", "order:1/3", "json"): "515660dedd667e53e95b7c2478f6269fb76af0e3ec9e48d9191ee7a34537feeb",
    ("LL", "a2", "default", "order:1/3", "csv"): "60acc9e5f520142ff4a6fcb1625d8bd9197a56b5618c05ac8e92f16a597e6423",
    ("LL", "a2", "default", "order:1/3", "pretty"): "1f0a2dfe4352637e6898deb3961e219b80b03ede43133e9a2345398a444ea899",
    ("LL", "a2", "default", "skewed", "json"): "563afbb500ebd092942fe8a69d90783c09afc271fce59f7af88c1f95c1f9a557",
    ("LL", "a2", "default", "skewed", "csv"): "006f765d84580c4b319ac364ee3308a39e64f8636067313ca7c0ecc953d177a0",
    ("LL", "a2", "default", "skewed", "pretty"): "3e47fe0f1acff94467e916de595da3babfa4950fff64099d5e148746be34d2fe",
    ("LL", "a2", "fine", "caratheodory", "json"): "e5cca4833de868a0785c06cae2409482f10538062c87974b6d696bc522e4a263",
    ("LL", "a2", "fine", "caratheodory", "csv"): "ed934e107be09026312f20ddbca57cf8c09ba0c6c2031b738e831450a1a5265e",
    ("LL", "a2", "fine", "caratheodory", "pretty"): "f8ff138ae053bdf7318df8281a7fa4af60df3348e292373e68fbf56d9d8ca124",
    ("LL", "a2", "fine", "order:1/3", "json"): "832db98822e5263c72487cec76c94f56d2f608a735fd59dbc039ac4afc8a4e08",
    ("LL", "a2", "fine", "order:1/3", "csv"): "60acc9e5f520142ff4a6fcb1625d8bd9197a56b5618c05ac8e92f16a597e6423",
    ("LL", "a2", "fine", "order:1/3", "pretty"): "1f0a2dfe4352637e6898deb3961e219b80b03ede43133e9a2345398a444ea899",
    ("LL", "a2", "fine", "skewed", "json"): "8ea6a25b021433b873e8ea96f0aeccd71e3447ad672c1dfb1757a921906a89ff",
    ("LL", "a2", "fine", "skewed", "csv"): "006f765d84580c4b319ac364ee3308a39e64f8636067313ca7c0ecc953d177a0",
    ("LL", "a2", "fine", "skewed", "pretty"): "3e47fe0f1acff94467e916de595da3babfa4950fff64099d5e148746be34d2fe",
    ("LL", "a3", "default", "caratheodory", "json"): "2f76a85e1aaf868a6c3ba09e1d340d00ab4d26e4d224901107e94da608cc5105",
    ("LL", "a3", "default", "caratheodory", "csv"): "66cde5b77231d2a87dee8c3c09551cfdfae9d1dd0ab3f37b904430c55b5dbb85",
    ("LL", "a3", "default", "caratheodory", "pretty"): "4db9a0a99c1710afcfaa9a9f4c6da4a58f46d15a67dfe06c893f322accb7f997",
    ("LL", "a3", "default", "order:1/3", "json"): "1c8704f48e2ba154e73b2860e957a8b6171acff383fe3c3f77a27db55e07476b",
    ("LL", "a3", "default", "order:1/3", "csv"): "295f1610cc2818b584022acc8981b478c8bf91c01d93015c8eca9d1adf11e7ef",
    ("LL", "a3", "default", "order:1/3", "pretty"): "6faa08885bdadc90532b10afb9077024c77625c73b5e6b1463fa7fbfa9cb0037",
    ("LL", "a3", "default", "skewed", "json"): "d4e159b9f17242eda0b25371a4b6cb6462e60604526529ca46aa853032195fe0",
    ("LL", "a3", "default", "skewed", "csv"): "2d284728c36e1a7a8f95632b98ee955fa9f4adf2b1c2ddb79b673e8f97db6390",
    ("LL", "a3", "default", "skewed", "pretty"): "e38f74056d0cfffa7fc688dc851e4fa402d31d4d4c89b6042f5b9980492e10b7",
    ("LL", "a3", "fine", "caratheodory", "json"): "161e448624a32df327289180179a0e9f7a5d9e858b0d870efe89b536a7f6c2a6",
    ("LL", "a3", "fine", "caratheodory", "csv"): "66cde5b77231d2a87dee8c3c09551cfdfae9d1dd0ab3f37b904430c55b5dbb85",
    ("LL", "a3", "fine", "caratheodory", "pretty"): "4db9a0a99c1710afcfaa9a9f4c6da4a58f46d15a67dfe06c893f322accb7f997",
    ("LL", "a3", "fine", "order:1/3", "json"): "3999c569500fe5b828e30237c5eecc15de452b33d55a78f716a95783781b1160",
    ("LL", "a3", "fine", "order:1/3", "csv"): "295f1610cc2818b584022acc8981b478c8bf91c01d93015c8eca9d1adf11e7ef",
    ("LL", "a3", "fine", "order:1/3", "pretty"): "6faa08885bdadc90532b10afb9077024c77625c73b5e6b1463fa7fbfa9cb0037",
    ("LL", "a3", "fine", "skewed", "json"): "e6fc99f587824869ddfb8f638557dd2e85b61bdbd2cee246db6b977d124f52a0",
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

    def test_large_target_a3_sweep_succeeds(self):
        code, text = run_cli(
            ["sweep", "--pair", "PM", "--alpha", "1/2", "--beta", "1/3",
             "--phi-coeffs", "2,1e8", "--what", "a3"]
        )
        assert code == 0
        assert '"gap": 0.0' in text

    def test_cancelling_large_target_a3_sweep_succeeds(self):
        # W's two terms, about 2e11 each, cancel: the grid's roundoff near
        # 1e-4 must not read as a maximum above the corner S3 = 2.
        code, text = run_cli(
            ["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0", "--what", "a3",
             "--phi-coeffs", "2,1000000000002", "--psi-coeffs", "2,-2999999999998"]
        )
        assert code == 0
        assert json.loads(text)["max_value"] == 2.0

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


class TestConfigFile:
    def test_defaults_from_file(self, tmp_path):
        config = tmp_path / "defaults.cfg"
        config.write_text("# sweep defaults\nradial_steps = 3\nphase_steps = 4\n")
        code, text = run_cli(
            ["--config", str(config), "sweep", "--pair", "PP",
             "--alpha", "0", "--beta", "0"]
        )
        assert code == 0
        assert '"radial_steps": 3' in text
        assert '"phase_steps": 4' in text

    def test_flags_override_file(self, tmp_path):
        config = tmp_path / "defaults.cfg"
        config.write_text("radial_steps=3\n")
        code, text = run_cli(
            ["--config", str(config), "sweep", "--pair", "PP",
             "--alpha", "0", "--beta", "0", "--radial-steps", "5"]
        )
        assert code == 0
        assert '"radial_steps": 5' in text

    def test_env_variable(self, tmp_path, monkeypatch):
        config = tmp_path / "env.cfg"
        config.write_text("seed=99\n")
        monkeypatch.setenv(cli.ENV_CONFIG, str(config))
        code, text = run_cli(["verify", "--suite", "series", "--samples", "2"])
        assert code == 0
        assert '"seed": 99' in text

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("bogus=1\n")
        assert cli.main(["--config", str(config), "table"]) == cli.EXIT_USAGE


BOUND = ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0"]
AUDIT = ["audit", "--theorem", "LL", "--grid", "0:1:0.5"]
SWEEP = ["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0"]
EXPAND = ["expand", "--class", "P", "--alpha", "0", "--a2", "1", "--a3", "1"]

# name -> (config file text or None, argv); each must exit 1 with no output.
REJECTED = {
    "bound_order_1": (None, BOUND + ["--order", "1"]),
    "config_order_2": ("order=2\n", BOUND),
    "expand_order_2": (None, EXPAND + ["--order", "2"]),
    "expand_order_1": (None, EXPAND + ["--order", "1"]),
    "verify_samples_0": (None, ["verify", "--samples", "0"]),
    "verify_samples_negative": (None, ["verify", "--samples", "-5"]),
    "config_samples_0": ("samples=0\n", ["verify", "--suite", "series"]),
    # Uncapped, one flag could keep verify running for hours.
    "verify_samples_above_cap": (None, ["verify", "--samples", str(MAX_SAMPLES + 1)]),
    "config_samples_above_cap": (f"samples={MAX_SAMPLES + 1}\n", ["verify", "--suite", "series"]),
    "sweep_phase_steps_3": (None, SWEEP + ["--phase-steps", "3"]),
    "sweep_radial_steps_1": (None, SWEEP + ["--radial-steps", "1"]),
    "config_order_not_int": ("order=abc\n", ["table"]),
    "audit_tolerance_nan": (None, AUDIT + ["--tolerance", "nan"]),
    "audit_tolerance_inf": (None, AUDIT + ["--tolerance", "inf"]),
    "audit_tolerance_negative": (None, AUDIT + ["--tolerance", "-1"]),
    "config_tolerance_nan": ("tolerance=nan\n", AUDIT),
    # A relative tolerance of 1 or more would let the audit pass vacuously.
    "audit_tolerance_1": (None, AUDIT + ["--tolerance", "1"]),
    "audit_tolerance_2": (None, AUDIT + ["--tolerance", "2"]),
    "audit_tolerance_1e300": (None, AUDIT + ["--tolerance", "1e300"]),
    "config_tolerance_1": ("tolerance=1\n", AUDIT),
    "config_tolerance_2": ("tolerance=2.5\n", AUDIT),
    "preset_zero_denominator": (None, BOUND + ["--phi", "order:1/0"]),
    "bound_order_65": (None, BOUND + ["--order", "65"]),
    "config_order_65": ("order=65\n", BOUND),
    "config_order_5000_digits": ("order=" + "7" * 5000 + "\n", BOUND),
    "config_key_5000_xs": ("x" * 5000 + "=1\n", BOUND),
    # An empty target flag is refused, not read as the Caratheodory default.
    "bound_phi_empty": (None, BOUND + ["--phi", ""]),
    "bound_psi_empty": (None, BOUND + ["--psi", ""]),
    "bound_phi_coeffs_empty": (None, BOUND + ["--phi-coeffs", ""]),
    "bound_psi_coeffs_empty": (None, BOUND + ["--psi-coeffs", ""]),
    "bound_psi_coeffs_empty_beside_psi": (None, BOUND + ["--psi", "caratheodory",
                                                        "--psi-coeffs", ""]),
    "audit_phi_empty": (None, AUDIT + ["--phi", ""]),
    "audit_psi_empty": (None, AUDIT + ["--psi", ""]),
    "audit_phi_coeffs_empty": (None, AUDIT + ["--phi-coeffs", ""]),
    "audit_psi_coeffs_empty": (None, AUDIT + ["--psi-coeffs", ""]),
    "sweep_phi_empty": (None, SWEEP + ["--phi", ""]),
    "sweep_psi_empty": (None, SWEEP + ["--psi", ""]),
    "sweep_phi_coeffs_empty": (None, SWEEP + ["--phi-coeffs", ""]),
    "sweep_psi_coeffs_empty": (None, SWEEP + ["--psi-coeffs", ""]),
}
# Rationals whose float conversion overflows.
OVERFLOWS = {
    "bound_alpha_beta_1e300": ["bound", "--pair", "PP", "--alpha", "1e300", "--beta", "1e300"],
    "bound_alpha_1e400": ["bound", "--pair", "PP", "--alpha", "1e400", "--beta", "0"],
    "expand_a2_1e400": ["expand", "--class", "P", "--alpha", "0", "--a2", "1e400", "--a3", "0"],
    "expand_l_a2_1e300_order_64": ["expand", "--class", "L", "--alpha", "1/3", "--a2", "1e300",
                                   "--a3", "1", "--order", "64"],
    "expand_l_a2_1e1000_order_64": ["expand", "--class", "L", "--alpha", "1/3", "--a2", "1e1000",
                                    "--a3", "1", "--order", "64"],
    "bound_phi_coeffs_1e400": BOUND + ["--phi-coeffs", "1,1e400"],
    "audit_grid_1e300": ["audit", "--theorem", "MM", "--grid", "1e300:1e300:1"],
    "sweep_alpha_beta_1e300": ["sweep", "--pair", "MM", "--alpha", "1e300", "--beta", "1e300"],
}
REJECTED.update((name, (None, argv)) for name, argv in OVERFLOWS.items())
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
REJECTED.update((name, (None, argv)) for name, argv in HUGE.items())


class TestInputContract:
    def test_grid_points_per_axis_are_capped(self):
        assert len(cli._parse_grid("0:100:1")) == 101
        with pytest.raises(cli.UsageError):
            cli._parse_grid("0:101:1")

    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_rejected_with_usage_error(self, name, tmp_path, capsys):
        config_text, argv = REJECTED[name]
        if config_text is not None:
            config = tmp_path / "defaults.cfg"
            config.write_text(config_text)
            argv = ["--config", str(config), *argv]
        code, text = run_cli(argv)
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

    def test_tolerance_of_one_or_more_is_refused(self, tmp_path, capsys):
        assert cli.main(AUDIT + ["--tolerance", "2"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "usage error: tolerance must be below 1, got 2.0\n"
        config = tmp_path / "defaults.cfg"
        config.write_text("tolerance=1\n")
        assert cli.main(["--config", str(config), *AUDIT]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "usage error: tolerance must be below 1, got 1.0\n"
        code, text = run_cli(AUDIT + ["--tolerance", "0.999"])
        assert code == cli.EXIT_OK and '"tolerance": 0.999' in text

    def test_order_cap_is_inclusive(self, tmp_path):
        assert run_cli(BOUND + ["--order", str(cli.MAX_ORDER)])[0] == cli.EXIT_OK
        config = tmp_path / "defaults.cfg"
        config.write_text(f"order={cli.MAX_ORDER}\n")
        assert run_cli(["--config", str(config), *EXPAND])[0] == cli.EXIT_OK

    def test_bad_config_value_names_the_key(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("radial_steps=many\n")
        assert cli.main(["--config", str(config), "table"]) == cli.EXIT_USAGE
        assert "radial_steps" in capsys.readouterr().err


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
    if command in ("bound", "audit", "sweep", "expand"):
        parts.append(draw(_optional("--order", _COUNTS)))
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
    payload, _ = cli._run_audit(args, {})
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
    payload, _ = cli._run_audit(args, {})
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


# Every command but sweep, each in both verify modes.
_NON_SWEEP_ARGVS = [
    ["bound", "--pair", "PL", "--alpha", "1/2", "--beta", "1/3"],
    ["audit", "--theorem", "LL", "--grid", "0:1:1/2", "--psi-coeffs", "2,1"],
    ["expand", "--class", "L", "--alpha", "1/2", "--a2", "1", "--a3", "2"],
    ["table"],
    ["verify", "--suite", "all", "--samples", "2"],
    ["verify", "--suite", "all", "--samples", "2", "--mode", "float"],
]

# Runs in a fresh interpreter, so nothing the test run imported is loaded.
# numpy is hidden, as if only the package without extras were installed.
_RUNTIME_PROBE = f"""
import contextlib, io, sys
before = set(sys.modules)
sys.modules["numpy"] = None
from bibounds import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in {_NON_SWEEP_ARGVS!r}]
loaded = {{name.split(".")[0] for name, module in sys.modules.items()
          if module is not None and name not in before}}
print(codes, sorted(loaded - set(sys.stdlib_module_names) - {{"bibounds"}}))
"""

_NO_NUMPY_SWEEP_PROBE = """
import sys
sys.modules["numpy"] = None
from bibounds import cli
sys.exit(cli.main(["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0"]))
"""


def _fresh_env():
    # A fresh interpreter that imports this checkout's bibounds, with no
    # config file supplying defaults.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop(cli.ENV_CONFIG, None)
    return env


def test_five_commands_need_no_third_party_package():
    proc = subprocess.run([sys.executable, "-c", _RUNTIME_PROBE],
                          capture_output=True, text=True, env=_fresh_env(), check=True)
    assert proc.stdout == "[0, 0, 0, 0, 0, 0] []\n"


def test_sweep_without_numpy_is_one_usage_error_line():
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_SWEEP_PROBE],
                          capture_output=True, text=True, env=_fresh_env())
    assert (proc.returncode, proc.stdout) == (cli.EXIT_USAGE, "")
    assert proc.stderr == ("usage error: sweep needs numpy, the 'sweep' extra: "
                           "pip install 'bibounds[sweep]'\n")


_LAZY_NUMPY_PROBE = f"""
import contextlib, io, sys
import bibounds, bibounds.cli
from bibounds import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in {_NON_SWEEP_ARGVS!r}]
    with contextlib.redirect_stderr(io.StringIO()):  # a rejected sweep
        codes.append(cli.main(["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0",
                               "--phase-steps", "3"]))
    print(codes, "numpy" in sys.modules, file=sys.stderr)
    cli.main(["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0"])
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


def test_numpy_loads_only_for_the_sweeps():
    proc = subprocess.run([sys.executable, "-c", _LAZY_NUMPY_PROBE],
                          capture_output=True, text=True, env=_fresh_env(), check=True)
    assert proc.stderr == "[0, 0, 0, 0, 0, 0, 1] False\n"
    assert proc.stdout == "[0, 0, 0, 0, 0, 0, 1] True\n"


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


def test_one_parser_serves_interleaved_commands(monkeypatch):
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
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
