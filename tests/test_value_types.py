"""The frozen value types: `qcore.frozen_dataclass` in place of
`@dataclass(frozen=True)`.

Each of the 12 types is checked against a stdlib frozen dataclass twin
built by `make_dataclass` from its fields and the rest of its namespace
(`__post_init__`, properties, methods): fields, signature, repr, equality,
hash, frozenness, `replace`, `asdict`, pickling and copying, argument
errors and the `__post_init__` gates must all come out the same.  A guard
checks that no dataclass of the package carries methods compiled from
generated source.  Their arrays, and those of the states and operators,
stay read-only through pickle and copy.
"""

import copy
import dataclasses
import importlib
import inspect
import math
import pickle
import sys
import typing
from dataclasses import FrozenInstanceError, asdict, field, fields, make_dataclass, replace

import numpy as np
import pytest

from jointmeas import (
    BlochObservable,
    DensityMatrix,
    DispersionCheck,
    Estimator,
    HermitianOperator,
    JointDistribution,
    MDReport,
    RelationChain,
    RelationReport,
    SemiweakSlide,
    StrengthOrdering,
    ToleranceProfile,
    VerificationResult,
    dilated_chain,
    dispersion_check,
    evaluate_md_relation,
    joint_distribution,
    optimal_estimator,
    pauli,
    reference_scenario,
    run_verification,
    simulate_scenario,
    slide_model,
    strength_comparison,
)
from jointmeas.oracle import direct_moments, w_moments
from jointmeas.qcore import _FrozenSlots, frozen_dataclass
from jointmeas.scenario import TRIPLES, SlideArrays, slide_arrays
from jointmeas.workflow import dilated_chains

MODULES = ("qcore", "scenario", "estimate", "relations", "oracle", "workflow", "dataio", "cli")
METHODS = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")
# what dataclass(), frozen_dataclass and the class statement put in a class namespace
MADE = set(METHODS) | {"_init_fields", "__setstate__", "__dataclass_fields__",
                       "__dataclass_params__", "__match_args__", "__dict__", "__weakref__",
                       "__annotations__"}


def _samples() -> dict[type, tuple]:
    """Two unequal instances of each value type, from the package's own calls."""
    rho, slide, w = reference_scenario()
    other_slide = slide_model(0.2, 0.6)
    other_w = BlochObservable(0.4, 1.0)
    sim = simulate_scenario(rho, slide, w)
    other = simulate_scenario(rho, other_slide, other_w, estimator="simple")
    est, other_est = optimal_estimator(rho, w), Estimator.simple()
    return {
        ToleranceProfile: (ToleranceProfile(), ToleranceProfile(measured_norm=0.05)),
        BlochObservable: (w, BlochObservable(0.4, 1.0)),
        SlideArrays: (slide.arrays, other_slide.arrays),
        SemiweakSlide: (slide, other_slide),
        JointDistribution: (joint_distribution(rho, slide, w),
                            joint_distribution(rho, other_slide, other_w)),
        Estimator: (est, other_est),
        DispersionCheck: (dispersion_check(rho, slide, w, est),
                          dispersion_check(rho, other_slide, other_w, other_est)),
        RelationReport: (sim, other),
        StrengthOrdering: (strength_comparison(sim), strength_comparison(other)),
        RelationChain: (dilated_chain(rho, slide, w, est),
                        dilated_chain(rho, other_slide, w, other_est)),
        MDReport: (evaluate_md_relation(sim, slide.kappa),
                   evaluate_md_relation(other, other_slide.kappa)),
        VerificationResult: (run_verification(4, 1), run_verification(4, 2)),
    }


SAMPLES = _samples()
VALUE_TYPES = list(SAMPLES)


def twin(cls: type) -> type:
    """A stdlib ``@dataclass(frozen=True)`` with ``cls``'s name, fields and
    namespace."""
    specs = []
    for f in fields(cls):
        if f.default_factory is not dataclasses.MISSING:
            specs.append((f.name, f.type, field(default_factory=f.default_factory)))
        elif f.default is not dataclasses.MISSING:
            specs.append((f.name, f.type, field(default=f.default)))
        else:
            specs.append((f.name, f.type))
    names = {f.name for f in fields(cls)}
    namespace = {k: v for k, v in vars(cls).items() if k not in MADE and k not in names}
    return make_dataclass(cls.__name__, specs, frozen=True, namespace=namespace)


TWINS = {cls: twin(cls) for cls in VALUE_TYPES}


def outcome(call):
    """What ``call()`` gives: its repr, or the type and text of what it raises."""
    try:
        return "returns", repr(call())
    except Exception as exc:  # the outcome under test
        return "raises", type(exc), str(exc)


def values(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def pair(cls):
    """The two samples of ``cls`` and their twins, built from the same values."""
    a, b = SAMPLES[cls]
    return a, b, TWINS[cls](**values(a)), TWINS[cls](**values(b))


def test_every_dataclass_of_the_package_is_covered():
    found = {obj for name in MODULES
             for obj in vars(importlib.import_module(f"jointmeas.{name}")).values()
             if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert found == set(VALUE_TYPES)
    assert len(found) == 12


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
def test_no_method_is_compiled_from_generated_source(cls):
    for name in METHODS:
        method = vars(cls)[name]
        assert method.__code__.co_filename != "<string>", (cls.__name__, name)
        assert method.__qualname__ == f"{cls.__qualname__}.{name}"
        assert method.__module__ == cls.__module__


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
def test_fields_signature_and_params_match_the_stdlib(cls):
    std = TWINS[cls]

    def described(c):
        return [(f.name, f.type, f.default, f.default_factory) for f in fields(c)]

    def parameters(sig):
        return ([(p.name, p.kind, repr(p.default), p.annotation)
                 for p in sig.parameters.values()], sig.return_annotation)

    assert described(cls) == described(std)
    for target in (lambda c: c, lambda c: c.__init__):
        assert parameters(inspect.signature(target(cls))) == parameters(
            inspect.signature(target(std)))
        assert str(inspect.signature(target(cls))) == str(inspect.signature(target(std)))
    assert cls.__match_args__ == std.__match_args__
    assert repr(cls.__dataclass_params__) == repr(std.__dataclass_params__)

    def positional(init):
        code = init.__code__
        return code.co_argcount, code.co_varnames[:code.co_argcount], repr(init.__defaults__)

    assert positional(cls.__init__) == positional(std.__init__)
    # the string annotations resolve in the class's module, as the stdlib
    # __init__'s do
    assert cls.__init__.__globals__ is vars(sys.modules[cls.__module__])
    assert typing.get_type_hints(cls.__init__) == {**typing.get_type_hints(cls),
                                                   "return": type(None)}


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
def test_repr_equality_and_hash_match_the_stdlib(cls):
    a, b, ta, tb = pair(cls)
    a2, ta2 = cls(**values(a)), TWINS[cls](**values(a))
    assert repr(a) == repr(ta)
    assert repr(b) == repr(tb)
    for ours, std in ((lambda: a == a2, lambda: ta == ta2), (lambda: a == b, lambda: ta == tb),
                      (lambda: a != a2, lambda: ta != ta2), (lambda: a != b, lambda: ta != tb),
                      (lambda: a == 1.0, lambda: ta == 1.0)):
        assert outcome(ours) == outcome(std)
    assert (a == ta) is False and (ta == a) is False
    assert outcome(lambda: hash(a)) == outcome(lambda: hash(ta))
    assert outcome(lambda: hash(b)) == outcome(lambda: hash(tb))
    assert outcome(lambda: hash(a) == hash(a2)) == outcome(lambda: hash(ta) == hash(ta2))


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
def test_fields_are_frozen_as_in_the_stdlib(cls):
    a, _, ta, _ = pair(cls)
    name = fields(cls)[0].name
    for obj in (a, ta):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, 0.0)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'extra'"):
            obj.extra = 1
    assert outcome(lambda: setattr(a, name, 0.0)) == outcome(lambda: setattr(ta, name, 0.0))
    assert outcome(lambda: delattr(a, name)) == outcome(lambda: delattr(ta, name))


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
def test_replace_asdict_pickle_and_deepcopy_match_the_stdlib(cls):
    a, b, ta, _ = pair(cls)
    name = fields(cls)[-1].name
    change = {name: getattr(b, name)}
    assert outcome(lambda: replace(a, **change)) == outcome(lambda: replace(ta, **change))
    assert outcome(lambda: asdict(a)) == outcome(lambda: asdict(ta))
    copied = copy.deepcopy(a)
    assert type(copied) is cls and repr(copied) == repr(copy.deepcopy(ta))
    loaded = pickle.loads(pickle.dumps(a))
    assert type(loaded) is cls and repr(loaded) == repr(a)
    assert list(vars(loaded)) == list(vars(a)) == list(vars(ta))
    with pytest.raises(FrozenInstanceError):
        setattr(loaded, name, 0.0)


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
def test_argument_handling_matches_the_stdlib(cls):
    a, _, _, _ = pair(cls)
    std = TWINS[cls]
    kw = values(a)
    args = list(kw.values())
    first, last = next(iter(kw)), list(kw)[-1]
    calls = [
        ((), {}),  # every required field missing
        ((), kw),  # all by keyword
        (args, {}),  # all by position
        (args[:1], {k: v for k, v in kw.items() if k != first}),  # mixed
        (args[:-1], {}),  # the last field missing or defaulted
        ((), {k: v for k, v in kw.items() if k != first}),  # the first field missing
        ((), {**kw, "bogus": 1}),  # unexpected keyword
        (args[:1], kw),  # the first field twice
        ((*args, None), {}),  # too many positional arguments
        ((*args, None), {"bogus": 1}),  # unexpected keyword comes first
        ((), dict(reversed(kw.items()))),  # keywords out of field order
    ]
    for call_args, call_kw in calls:
        ours = outcome(lambda: cls(*call_args, **call_kw))
        assert ours == outcome(lambda: std(*call_args, **call_kw)), (call_args, call_kw)
        if ours[0] == "raises" and ours[1] is TypeError:
            assert ours[2].startswith(f"{cls.__qualname__}.__init__() ")
    built = cls(**dict(reversed(kw.items())))
    assert list(vars(built))[:len(kw)] == list(kw)  # fields set in field order


def _entries(changes=None):
    return {**dict.fromkeys(TRIPLES, 0.125), **(changes or {})}


POST_INIT_GATES = [
    (ToleranceProfile, (), {"tomographic_psd": -1e-3}),
    (ToleranceProfile, (), {"tomographic_psd": math.nan, "measured_norm": math.nan}),
    (ToleranceProfile, (), {"measured_norm": math.inf}),
    (BlochObservable, (math.nan, 0.0), {}),
    (BlochObservable, (0.0, math.inf), {}),
    (SemiweakSlide, (1.5, 0.2), {}),
    (SemiweakSlide, (0.2, -0.1), {}),
    (JointDistribution, ({},), {}),
    (JointDistribution, (_entries(),), {"provenance": "guessed"}),
    (JointDistribution, (_entries({TRIPLES[0]: math.nan}),), {}),
    (JointDistribution, (_entries({TRIPLES[0]: -0.1, TRIPLES[1]: 0.35}),), {}),
    (JointDistribution, (_entries({TRIPLES[0]: 0.5}),), {}),
    (JointDistribution, (_entries(),), {"sigmas": {(2, 2, 2): 0.1}}),
    (JointDistribution, (_entries(),), {"sigmas": {TRIPLES[0]: -0.1}}),
    (Estimator, ({1: 1.0},), {}),
    (Estimator, ({1: 1.0, -1: math.inf},), {}),
    (Estimator, ({1: 1.0, -1: -1.0},), {"kind": "guessed"}),
    (Estimator, ({1: 0.5, -1: -1.0},), {"kind": "simple"}),
]


@pytest.mark.parametrize("cls, args, kwargs", POST_INIT_GATES,
                         ids=lambda v: v.__name__ if isinstance(v, type) else "")
def test_post_init_gates_match_the_stdlib(cls, args, kwargs):
    ours = outcome(lambda: cls(*args, **kwargs))
    assert ours[0] == "raises" and ours[1] is ValueError
    assert ours == outcome(lambda: TWINS[cls](*args, **kwargs))


def test_default_factory_gives_each_instance_its_own_value():
    a, _, _, _ = pair(RelationReport)
    kw = {k: v for k, v in values(a).items() if k != "scenario"}
    first, second = RelationReport(**kw), RelationReport(*kw.values())
    assert first.scenario == second.scenario == {}
    assert first.scenario is not second.scenario


def _declare(namespace: dict, bases: tuple = ()) -> type:
    return type("Declared", bases, {"__module__": __name__, "__doc__": "A value.", **namespace})


@pytest.mark.parametrize("namespace", [
    {"__annotations__": {"x": "float"}, "x": field(default=0.0, init=False)},
    {"__annotations__": {"x": "float"}, "x": field(default=0.0, repr=False)},
    {"__annotations__": {"x": "float"}, "x": field(default=0.0, compare=False)},
    {"__annotations__": {"x": "float"}, "x": field(default=0.0, hash=True)},
    {"__annotations__": {"x": "float"}, "x": field(default=0.0, kw_only=True)},
    {"__annotations__": {"x": "float", "y": dataclasses.InitVar[int]}},
    {"__annotations__": {"x": "float", "y": typing.ClassVar[int]}},
    {"__annotations__": {"x": "float"}, "__eq__": lambda self, other: True},
    {"__annotations__": {"x": "float"}, "__setattr__": object.__setattr__},
], ids=["init", "repr", "compare", "hash", "kw_only", "InitVar", "ClassVar", "own __eq__",
        "own __setattr__"])
def test_unused_dataclass_options_are_refused(namespace):
    with pytest.raises(TypeError, match="frozen_dataclass"):
        frozen_dataclass(_declare(namespace))


def test_a_dataclass_base_is_refused():
    base = dataclasses.dataclass(frozen=True)(_declare({"__annotations__": {"x": "float"}}))
    with pytest.raises(TypeError, match="frozen_dataclass"):
        frozen_dataclass(_declare({"__annotations__": {"y": "float"}}, (base,)))


def test_a_field_without_default_after_one_with_is_refused_as_by_the_stdlib():
    namespace = {"__annotations__": {"x": "float", "y": "float", "z": "float"}, "x": 0.0}
    with pytest.raises(TypeError) as std:
        dataclasses.dataclass(frozen=True)(_declare(dict(namespace)))
    with pytest.raises(TypeError) as ours:
        frozen_dataclass(_declare(dict(namespace)))
    assert str(ours.value) == str(std.value) == "non-default argument 'y' follows default argument"



ROUND_TRIPS = {
    "built": lambda value: value,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}
# a state and an operator, whose slots are restored by the same function
SLOTTED = {DensityMatrix: DensityMatrix.maximally_mixed(2), HermitianOperator: pauli("X")}
HOLDS_ARRAYS = {BlochObservable, SlideArrays, SemiweakSlide, JointDistribution, *SLOTTED}


def arrays_in(value) -> list:
    """Every array reachable from ``value`` through the attributes of frozen
    values and the items of dicts, lists and tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, _FrozenSlots):
        items = [getattr(value, name) for name in type(value).__slots__]
    elif dataclasses.is_dataclass(value):
        items = vars(value).values()
    elif isinstance(value, dict):
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    else:
        return []
    return [array for item in items for array in arrays_in(item)]


def _array_chain() -> RelationChain:
    """Three chains in one, from ``dilated_chains``: its fields, and the
    items of its two tuple fields, are arrays ``[3]``."""
    rho = reference_scenario()[0].matrix
    n = np.array([BlochObservable(theta, phi).vector
                  for theta, phi in ((1.5, 3.1), (0.4, 1.0), (2.0, 5.0))])
    slides = slide_arrays(np.array([0.1244, 0.2, 0.7]), np.array([0.4645, 0.6, 0.3]))
    rho = np.stack([rho] * 3)
    moments = w_moments(rho, n)
    f = np.array([[1.0, -1.0], [0.5, -0.3], [0.63, -0.64]])
    return dilated_chains(rho, slides, moments, f,
                          direct_moments(moments, f[:, None])[1][:, 0])


def _built_slide_arrays() -> SlideArrays:
    """A ``SlideArrays`` built directly, from writeable copies of a slide's
    arrays rather than by ``slide_arrays``."""
    arrays = reference_scenario()[1].arrays
    return SlideArrays(arrays.amplitudes.copy(), arrays.kappa.copy(), arrays.xi.copy())


# each input's samples and whether they hold arrays: the value types, the
# slotted values and an array-form chain
READ_ONLY_INPUTS = {
    **{cls.__name__: (SAMPLES[cls], cls in HOLDS_ARRAYS) for cls in VALUE_TYPES},
    **{cls.__name__: ([value], True) for cls, value in SLOTTED.items()},
    "RelationChainArrays": ([_array_chain()], True),
    "SlideArraysBuiltDirectly": ([_built_slide_arrays()], True),
}


@pytest.mark.parametrize("trip", list(ROUND_TRIPS))
@pytest.mark.parametrize("name", list(READ_ONLY_INPUTS))
def test_arrays_are_read_only_when_built_and_after_pickle_and_copy(name, trip):
    """A frozen value's arrays are read-only, as built and as pickle, copy
    and deepcopy restore them: numpy unpickles and deep-copies arrays
    writeable, so a restored value used to be changeable in place, and a
    slide's arrays were writeable even as built (writing into its Kraus
    operators changed every later joint table of the slide).  An array-form
    chain's arrays were writeable as built, and those in its tuples after
    pickle and copy too."""
    samples, holds_arrays = READ_ONLY_INPUTS[name]
    for sample in samples:
        arrays = arrays_in(ROUND_TRIPS[trip](sample))
        assert bool(arrays) == holds_arrays
        assert not any(array.flags.writeable for array in arrays), name
