"""The package's records keep the semantics of frozen dataclasses.

Each record is built once by keyword, in field order, and once positionally from
the same values, so a case pins the constructor's argument order too.  Every
record compares and hashes by its fields and refuses assignment; one with a dict
or array field is unhashable.  Each ``repr`` reads ``Name(field=value, ...)``, as
a dataclass's does.
"""

import numpy as np
import pytest

from swlyap.certificates import (
    ConditionReport,
    DatkoCertificate,
    DecayBound,
    FitRefusal,
    GrowthBound,
    NormEquivalence,
)
from swlyap.cli import RunConfig
from swlyap.errors import Record
from swlyap.gram import ArgmaxSet, GramOperator
from swlyap.lyapunov import LyapunovEstimate
from swlyap.semigroups import DiagonalGroupMode, HalfLineShiftMode, MatrixMode, ShiftAmplifyMode
from swlyap.state_space import NormSpec, PiecewiseConstantFn
from swlyap.switching import SignalFamily, SwitchedSystem, SwitchingSignal

SIG = SwitchingSignal(((0, 0.5), (1, 0.25)), 1)
SIG_REPR = "SwitchingSignal(segments=((0, 0.5), (1, 0.25)), tail_mode=1)"

# (class, fields by keyword in constructor order, repr)
CASES = [
    (PiecewiseConstantFn, dict(domain_lo=0.0, domain_hi=1.0, breaks=(0.5,), values=(1.0, 2.0)),
     "PiecewiseConstantFn(domain_lo=0.0, domain_hi=1.0, breaks=(0.5,), values=(1.0, 2.0))"),
    (NormSpec, dict(p=3.0, kind="lp"), "NormSpec(p=3.0, kind='lp')"),
    (MatrixMode, dict(rows=((-1.0, 0.0), (0.0, -2.0))),
     "MatrixMode(rows=((-1.0, 0.0), (0.0, -2.0)))"),
    (ShiftAmplifyMode, dict(domain_lo=0.0, domain_hi=1.0, direction="left", amplify_lo=0.0,
                            amplify_hi=0.25, factor=2.0),
     "ShiftAmplifyMode(domain_lo=0.0, domain_hi=1.0, direction='left', amplify_lo=0.0, "
     "amplify_hi=0.25, factor=2.0)"),
    (DiagonalGroupMode, dict(mu=0.5), "DiagonalGroupMode(mu=0.5)"),
    (HalfLineShiftMode, dict(), "HalfLineShiftMode()"),
    (SwitchingSignal, dict(segments=((0, 0.5), (1, 0.25)), tail_mode=1), SIG_REPR),
    (SwitchedSystem, dict(modes=(DiagonalGroupMode(1.0),), norm=NormSpec.euclidean()),
     "SwitchedSystem(modes=(DiagonalGroupMode(mu=1.0),), norm=NormSpec(p=2.0, kind='euclidean'))"),
    (SignalFamily, dict(dwell_grid=(0.5, 0.25), max_switches=1, mode_ids=(0, 1)),
     "SignalFamily(dwell_grid=(0.25, 0.5), max_switches=1, mode_ids=(0, 1))"),
    (LyapunovEstimate, dict(value=1.5, witness=SIG, horizon=10.0, kind="V_tilde"),
     f"LyapunovEstimate(value=1.5, witness={SIG_REPR}, horizon=10.0, kind='V_tilde')"),
    (GramOperator, dict(B=[[2.0]], source_signal=SIG),
     f"GramOperator(B=array([[2.]]), source_signal={SIG_REPR})"),
    (ArgmaxSet, dict(indices=(0, 2), tol=1e-9), "ArgmaxSet(indices=(0, 2), tol=1e-09)"),
    (GrowthBound, dict(M=2.0, omega=1.0), "GrowthBound(M=2.0, omega=1.0)"),
    (DecayBound, dict(K=2.0, mu=1.0), "DecayBound(K=2.0, mu=1.0)"),
    (NormEquivalence, dict(c=0.5, C=2.0), "NormEquivalence(c=0.5, C=2.0)"),
    (DatkoCertificate, dict(p=2.0, C_int=1.0, k=1.5, rho=0.5, beta=0.75, t0=4.0, t1=4.04,
                            K=3.0, mu=0.07),
     "DatkoCertificate(p=2.0, C_int=1.0, k=1.5, rho=0.5, beta=0.75, t0=4.0, t1=4.04, K=3.0, "
     "mu=0.07)"),
    (FitRefusal, dict(reason="no decay", t=1.0, value=2.0, signal=SIG),
     f"FitRefusal(reason='no decay', t=1.0, value=2.0, signal={SIG_REPR})"),
    (ConditionReport, dict(n_samples=3, c_hat=0.5, C_hat=2.0, upper_ok=True, lower_ok=True,
                           derivative_ok=False, growth=GrowthBound(2.0, 1.0), growth_ok=True,
                           supports={"B": False}, notes=("a note",)),
     "ConditionReport(n_samples=3, c_hat=0.5, C_hat=2.0, upper_ok=True, lower_ok=True, "
     "derivative_ok=False, growth=GrowthBound(M=2.0, omega=1.0), growth_ok=True, "
     "supports={'B': False}, notes=('a note',))"),
    (RunConfig, dict(task="simulate", system=None, signal=SIG, state=None, family=None,
                     horizon=2.0, dt=0.5, seed=1, n_samples=2, example=None, params={"n": 2},
                     out_dir="out"),
     f"RunConfig(task='simulate', system=None, signal={SIG_REPR}, state=None, family=None, "
     "horizon=2.0, dt=0.5, seed=1, n_samples=2, example=None, params={'n': 2}, out_dir='out')"),
]
UNHASHABLE_FIELDS = (GramOperator, ConditionReport, RunConfig)  # an array or a dict field
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_positional_and_keyword_build_equal_records(cls, fields, text):
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert by_keyword == by_position and not by_keyword != by_position
    if cls not in UNHASHABLE_FIELDS:
        assert hash(by_keyword) == hash(by_position)


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_repr_names_each_field(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_frozen_records_refuse_assignment_and_mutable_ones_take_it(cls, fields, text):
    # every record refuses; a dict or array field only keeps it from hashing
    record = cls(**fields)
    if cls in UNHASHABLE_FIELDS:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    for name in [*fields, "not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


def test_records_of_two_classes_never_compare_equal():
    assert GrowthBound(2, 1) != DecayBound(2, 1)
    assert not GrowthBound(2, 1) == DecayBound(2, 1)


def test_a_cached_exponential_stays_out_of_equality():
    rows = ((-1.0, 0.5), (0.0, -2.0))
    mode, fresh = MatrixMode(rows), MatrixMode(rows)
    mode.exp(0.5)
    assert mode == fresh and hash(mode) == hash(fresh)
    assert mode.__dict__.keys() > fresh.__dict__.keys()


def _records(cls=Record):
    """Every subclass of ``cls``; importing ``swlyap.cli`` above loaded them all."""
    for sub in cls.__subclasses__():
        yield sub
        yield from _records(sub)


def test_every_record_is_frozen_with_immutable_defaults():
    records = set(_records())
    assert records == {cls for cls, _, _ in CASES}  # so every record has a case above
    for cls in records:
        assert (cls.__setattr__, cls.__delattr__) == (Record.__setattr__, Record.__delattr__)
        assert not [k for k, v in cls._defaults.items() if type(v) in (dict, list, set)], cls


def test_every_record_is_built_by_the_one_constructor():
    # PiecewiseConstantFn._from_floats, for kernel output, is the one fill by hand
    assert [cls for cls in _records() if "__init__" in vars(cls)] == []


def test_gram_operators_compare_by_signal_and_entries():
    a, b = SwitchingSignal((), 0), SwitchingSignal((), 1)
    op = GramOperator(np.eye(2), a)
    assert op == GramOperator(np.eye(2), a) and not op != GramOperator(np.eye(2), a)
    assert op != GramOperator(2.0 * np.eye(2), a)
    assert op != GramOperator(np.eye(2), b)
    assert op != GramOperator(np.eye(3), a)
    assert op != np.eye(2).tolist() and op != a
    with pytest.raises(TypeError, match="unhashable"):
        hash(op)


def test_constructor_arguments_are_checked():
    with pytest.raises(TypeError):
        GrowthBound(2.0)
    with pytest.raises(TypeError):
        GrowthBound(2.0, 1.0, 0.5)
    with pytest.raises(TypeError):
        GrowthBound(2.0, M=1.0)
    with pytest.raises(TypeError):
        NormSpec(q=2.0)


def test_condition_report_serialises_its_growth_bound_as_an_object():
    doc = ConditionReport(growth=GrowthBound(2.0, 1.0)).to_json()
    assert doc["growth"] == {"M": 2.0, "omega": 1.0}
    assert list(doc)[:8] == ["n_samples", "c_hat", "C_hat", "upper_ok", "lower_ok",
                             "derivative_ok", "growth", "growth_ok"]
