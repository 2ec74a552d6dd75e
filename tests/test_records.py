"""The record contract: repr, equality, hashing, construction and refusals.

Every public record of the package is immutable, compares and hashes by its
fields, prints as ``Name(field=value, ...)`` in declaration order (verify
witnesses quote these), and builds from positional or keyword arguments.
A record that checks or converts its input refuses a bad value with the
same message whether it is built or replaced.
"""

from fractions import Fraction

import pytest

from bibounds import (
    BoundReport,
    CheckResult,
    ClassSpec,
    ClassTriple,
    Discrepancy,
    EliminationResult,
    EndToEndReport,
    MindaTarget,
    PairSpec,
    QComplex,
    RandomCheckReport,
    SchlichtCoeffs,
    SchwarzParams,
    SweepConfig,
    SweepResult,
    inverse_triple,
    theorem_pair,
    triple,
)
from bibounds.harness import MAX_SWEEP_POINTS

HALF = Fraction(1, 2)
SPEC_P = ClassSpec("P", HALF)
SPEC_L = ClassSpec("L", Fraction(1, 3))
PHI = MindaTarget([2, HALF])
PSI = MindaTarget([1])

# (class, field names in declaration order, positional arguments, repr).
RECORDS = [
    (MindaTarget, ("coefficients",), ((2, HALF),),
     "MindaTarget(coefficients=(Fraction(2, 1), Fraction(1, 2)))"),
    (ClassSpec, ("kind", "param"), ("L", HALF),
     "ClassSpec(kind='L', param=Fraction(1, 2))"),
    (ClassTriple, ("p", "q", "r"), (Fraction(3, 2), 4, Fraction(21, 8)),
     "ClassTriple(p=Fraction(3, 2), q=Fraction(4, 1), r=Fraction(21, 8))"),
    (SchlichtCoeffs, ("values",), ((1, HALF),),
     "SchlichtCoeffs(values=(1, Fraction(1, 2)))"),
    (SchwarzParams, ("c1", "c2", "b2"), (1, HALF, 0),
     "SchwarzParams(c1=QComplex(1, 0), c2=QComplex(1/2, 0), b2=QComplex(0, 0))"),
    (SchwarzParams, ("c1", "c2", "b2"), (1.0, 0.5j, 0),
     "SchwarzParams(c1=(1+0j), c2=0.5j, b2=0j)"),
    (PairSpec, ("class_f", "phi", "class_g", "psi"), (SPEC_P, PHI, SPEC_L, PSI),
     "PairSpec(class_f=ClassSpec(kind='P', param=Fraction(1, 2)), "
     "phi=MindaTarget(coefficients=(Fraction(2, 1), Fraction(1, 2))), "
     "class_g=ClassSpec(kind='L', param=Fraction(1, 3)), "
     "psi=MindaTarget(coefficients=(Fraction(1, 1),)))"),
    (EliminationResult,
     ("a2_squared", "a3", "rhs_f", "rhs_g", "sigma_tilde", "denominator",
      "degenerate"),
     (QComplex(HALF), None, QComplex(1), QComplex(0, 1), Fraction(7, 3), 0, True),
     "EliminationResult(a2_squared=QComplex(1/2, 0), a3=None, rhs_f=QComplex(1, 0), "
     "rhs_g=QComplex(0, 1), sigma_tilde=Fraction(7, 3), denominator=0, "
     "degenerate=True)"),
    (Discrepancy,
     ("field", "printed", "derived", "alpha", "beta", "B1", "B2", "D1", "D2"),
     ("a3", 1.5, 1.25, 0.5, 0.0, 2.0, 2.0, 2.0, 1.0),
     "Discrepancy(field='a3', printed=1.5, derived=1.25, alpha=0.5, beta=0.0, "
     "B1=2.0, B2=2.0, D1=2.0, D2=1.0)"),
    (BoundReport,
     ("theorem", "alpha", "beta", "phi", "psi", "sigma_printed", "sigma_derived",
      "sigma_tilde", "a2_printed", "a2_generic", "a3_printed", "a3_generic",
      "degenerate", "discrepancies", "notes"),
     ("PP", 0.0, 0.5, (2.0,), (1.0, 0.5), 3.0, 3.0, 3.0, 1.0, 1.0, None, 2.0,
      True, (Discrepancy("sigma", 1.0, 2.0, 0.0, 0.5, 2.0, 0.0, 1.0, 0.5),),
      ("a note",)),
     "BoundReport(theorem='PP', alpha=0.0, beta=0.5, phi=(2.0,), psi=(1.0, 0.5), "
     "sigma_printed=3.0, sigma_derived=3.0, sigma_tilde=3.0, a2_printed=1.0, "
     "a2_generic=1.0, a3_printed=None, a3_generic=2.0, degenerate=True, "
     "discrepancies=(Discrepancy(field='sigma', printed=1.0, derived=2.0, "
     "alpha=0.0, beta=0.5, B1=2.0, B2=0.0, D1=1.0, D2=0.5),), notes=('a note',))"),
    (SweepConfig, ("radial_steps", "phase_steps"), (3, 5),
     "SweepConfig(radial_steps=3, phase_steps=5)"),
    (SweepResult,
     ("quantity", "max_value", "argmax", "bound", "gap", "attained"),
     ("a2", 1.0, SchwarzParams(0.0, 2.0, 2.0), 1.5, 0.5, False),
     "SweepResult(quantity='a2', max_value=1.0, argmax=SchwarzParams(c1=0j, "
     "c2=(2+0j), b2=(2+0j)), bound=1.5, gap=0.5, attained=False)"),
    (RandomCheckReport,
     ("samples", "a2_bound", "a3_bound", "max_a2_ratio", "max_a3_ratio"),
     (3, 1.0, 2.0, 0.5, 0.25),
     "RandomCheckReport(samples=3, a2_bound=1.0, a3_bound=2.0, max_a2_ratio=0.5, "
     "max_a3_ratio=0.25)"),
    (EndToEndReport,
     ("a2", "a3", "b1", "b2", "b1_matches_linkage", "closed_forms_match",
      "residual", "subordination_plausible", "degenerate"),
     (QComplex(HALF, 1), 0.25j, QComplex(-1), 1.0, True, True, 0.0, False, False),
     "EndToEndReport(a2=QComplex(1/2, 1), a3=0.25j, b1=QComplex(-1, 0), b2=1.0, "
     "b1_matches_linkage=True, closed_forms_match=True, residual=0.0, "
     "subordination_plausible=False, degenerate=False)"),
    (CheckResult, ("name", "passed", "witness"), ("series_ring_laws", False, "x"),
     "CheckResult(name='series_ring_laws', passed=False, witness='x')"),
]
IDS = [f"{cls.__name__}-{index}" for index, (cls, *_) in enumerate(RECORDS)]


@pytest.mark.parametrize("cls, names, args, text", RECORDS, ids=IDS)
def test_repr_is_exact(cls, names, args, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, names, args, text", RECORDS, ids=IDS)
def test_keyword_construction_matches_positional(cls, names, args, text):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    assert by_keyword == by_position
    assert repr(by_keyword) == text
    assert [getattr(by_keyword, name) for name in names] == [
        getattr(by_position, name) for name in names]


@pytest.mark.parametrize("cls, names, args, text", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(cls, names, args, text):
    first, second = cls(*args), cls(*args)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@pytest.mark.parametrize("cls, names, args, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, names, args, text):
    record = cls(*args)
    with pytest.raises(AttributeError):
        setattr(record, names[0], getattr(record, names[0]))


def test_a_changed_field_breaks_equality():
    assert ClassSpec("P", 0) != ClassSpec("P", 1)
    assert ClassSpec("P", 0) != ClassSpec("M", 0)
    assert MindaTarget([2]) != MindaTarget([2, 1])
    assert SweepConfig() != SweepConfig(9, 17)
    assert PairSpec(SPEC_P, PHI, SPEC_L, PSI) != PairSpec(SPEC_P, PHI, SPEC_L, PHI)


def test_sweep_config_defaults():
    cfg = SweepConfig()
    assert (cfg.radial_steps, cfg.phase_steps) == (9, 16)
    assert SweepConfig(radial_steps=4) == SweepConfig(4, 16)
    assert SweepConfig(phase_steps=8) == SweepConfig(9, 8)


def test_inputs_are_converted():
    assert MindaTarget(["1/2", 1.5, QComplex(2)]).coefficients == (
        HALF, Fraction(3, 2), Fraction(2))
    assert ClassSpec("M", "3/2").param == Fraction(3, 2)
    assert ClassTriple(1, 0.5, "2").r == 2
    assert SchlichtCoeffs([1, 2]).values == (1, 2)
    assert SchwarzParams(1, 0, 0).c1 == QComplex(1)
    assert SchwarzParams(1, 0.0, 0).c1 == 1 + 0j


_TARGET = MindaTarget([1])
_SPEC = ClassSpec("L", 0)
_TRIPLE = ClassTriple(1, 1, 1)
_PARAMS = SchwarzParams(0, 0, 0)
_CONFIG = SweepConfig()

# (class, a valid record, the fields to build or replace it with, the
# exception type, its exact message).
REFUSALS = [
    (MindaTarget, _TARGET, dict(coefficients=[]), ValueError,
     "a target needs at least B1"),
    (MindaTarget, _TARGET, dict(coefficients=[0, 2]), ValueError,
     "B1 must be positive, got 0"),
    (MindaTarget, _TARGET, dict(coefficients=[Fraction(-1, 3)]), ValueError,
     "B1 must be positive, got -1/3"),
    (MindaTarget, _TARGET, dict(coefficients=[2, 1j]), TypeError,
     "target coefficient must be real, got 1j"),
    (ClassSpec, _SPEC, dict(kind="X", param=0), ValueError,
     "unknown class kind 'X'"),
    (ClassSpec, _SPEC, dict(kind="L", param=Fraction(5, 4)), ValueError,
     "L-class parameter must lie in [0, 1], got 5/4"),
    (ClassSpec, _SPEC, dict(kind="M", param=-1), ValueError,
     "M-class parameter must be nonnegative, got -1"),
    (ClassSpec, _SPEC, dict(kind="P", param=None), TypeError,
     "class parameter must be real, got None"),
    (ClassTriple, _TRIPLE, dict(p=1, q=1j, r=1), TypeError,
     "q must be real, got 1j"),
    (SchwarzParams, _PARAMS, dict(c1=3, c2=0, b2=0), ValueError,
     "|c1| must be at most 2, got QComplex(3, 0)"),
    (SchwarzParams, _PARAMS, dict(c1=0, c2=0, b2=QComplex(2, 1)), ValueError,
     "|b2| must be at most 2, got QComplex(2, 1)"),
    (SchwarzParams, _PARAMS, dict(c1=0, c2=2.5j, b2=0), ValueError,
     "|c2| must be at most 2, got 2.5j"),
    (SweepConfig, _CONFIG, dict(radial_steps=1), ValueError,
     "need at least 2 radial steps"),
    (SweepConfig, _CONFIG, dict(phase_steps=3), ValueError,
     "need at least 4 phase steps"),
    (SweepConfig, _CONFIG, dict(radial_steps=17, phase_steps=64), ValueError,
     f"sweep grid of {17 * 64**3} points exceeds the cap of {MAX_SWEEP_POINTS}"),
]


@pytest.mark.parametrize("how", ["built", "replaced"])
@pytest.mark.parametrize("cls, valid, changes, error, message", REFUSALS)
def test_every_refusal_message(how, cls, valid, changes, error, message):
    with pytest.raises(error) as caught:
        cls(**changes) if how == "built" else valid._replace(**changes)
    assert str(caught.value) == message


def test_replacement_converts_as_the_constructor_does():
    assert _TARGET._replace(coefficients=[2, "1/2"]) == PHI
    assert _SPEC._replace(param="1/3") == SPEC_L
    assert _TRIPLE._replace(q=2.5).q == Fraction(5, 2)
    replaced = SchlichtCoeffs([1])._replace(values=[1, HALF])
    assert replaced.values == (1, HALF) and type(replaced.values) is tuple
    assert _PARAMS._replace(c2=1.0).mode == "float"
    assert _CONFIG._replace(phase_steps=8) == SweepConfig(9, 8)


def test_pair_caches_its_constants_and_replacement_rebuilds_its_triples():
    pair = theorem_pair("PL", HALF, Fraction(1, 3), PHI, PSI)
    assert "exact_constants" not in vars(pair)
    first = pair.exact_constants
    assert "exact_constants" in vars(pair)
    assert pair.exact_constants is first
    assert pair.triple_f() == triple(pair.class_f)
    assert pair.triple_g_inverse() == inverse_triple(triple(pair.class_g))

    changed = pair._replace(class_g=ClassSpec("M", 1))
    assert type(changed) is PairSpec
    assert "exact_constants" not in vars(changed)
    assert changed.triple_f() == pair.triple_f()
    assert changed.triple_g_inverse() == inverse_triple(triple(ClassSpec("M", 1)))
    assert changed.exact_constants != first
    assert changed._replace(class_g=pair.class_g) == pair
