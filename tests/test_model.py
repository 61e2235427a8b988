import io
import math

import numpy as np
import pytest

from latentbias import (
    DataError,
    Dataset,
    DivergenceError,
    DomainError,
    ModelConfig,
    PriorKind,
    build_prior,
    read_dataset_csv,
    run_gibbs,
)
from latentbias import inference

from conftest import dataset_from_rows


# --- prior construction --------------------------------------------------------

def test_independent_prior_default():
    means, variances = build_prior(4)
    assert np.array_equal(means, np.zeros(4))
    assert np.array_equal(variances, np.ones(4))


def test_dependent_prior_same_numbers():
    # every regime starts from build_prior's default: passing it explicitly
    # reproduces the run that builds it itself, bit for bit
    records = dataset_from_rows(np.repeat([0, 1], [30, 20]), np.arange(50) % 3 == 0, ("a", "b"))

    def trace(cfg, **kw):
        try:
            return run_gibbs(records, cfg, **kw)[1]
        except DivergenceError as exc:  # unanchored FREE: compare what was recorded
            return exc.trace

    for kind in PriorKind:
        cfg = ModelConfig(seed=4, prior=kind, sweeps=6, burn_in=1)
        implicit, explicit = trace(cfg), trace(cfg, prior=build_prior(2))
        assert np.array_equal(implicit.means, explicit.means)
        assert np.array_equal(implicit.variances, explicit.variances)


def test_custom_prior_placement():
    means, variances = build_prior(2, group_means=(0.5, -0.5), group_variances=(2, 2))
    assert np.array_equal(means, [0.5, -0.5])
    assert np.array_equal(variances, [2.0, 2.0])


def test_prior_criminality_marginal_standard_normal():
    # with no records the precision run_gibbs assembles is the prior's:
    # criminality N(0,1), no cross terms, under every regime
    _means, variances = build_prior(3, group_variances=(2.0, 4.0, 0.5))
    for kind in PriorKind:
        cfg = ModelConfig(seed=1, prior=kind)
        lam = inference._assemble_report_precision(variances, np.zeros(3, dtype=int), cfg)
        assert np.array_equal(lam, np.diag([0.5, 0.25, 2.0, 1.0]))


def test_prior_validation():
    for kw in (
        dict(group_means=(0.0,)),
        dict(group_variances=(1.0, 0.0)),
        dict(group_variances=(1.0, -2.0)),
        dict(group_variances=(1.0, math.nan)),
        dict(group_variances=(math.inf, 1.0)),
        dict(group_means=(math.nan, 0.0)),
        dict(group_means=(0.0, -math.inf)),
    ):
        with pytest.raises(DomainError):
            build_prior(2, **kw)


def test_prior_needs_a_group():
    with pytest.raises(DomainError):
        build_prior(0)


# --- records and config ----------------------------------------------------------

def test_record_outcome_requires_stop():
    header = b"group,stopped,outcome,force\n"
    read_dataset_csv(io.BytesIO(header + b"a,1,1,\n"))
    with pytest.raises(DataError, match="^line 2: "):
        read_dataset_csv(io.BytesIO(header + b"a,0,1,\n"))
    with pytest.raises(DomainError):
        Dataset(np.array([[[-1], [1]]]), ("a",))  # a negative count of stops


def test_group_validation():
    # the tally has one row per label and one column per force, over tables
    # of unique entries
    Dataset(np.ones((2, 2, 1), dtype=int), ("a", "b"))
    with pytest.raises(DomainError):
        Dataset(np.ones((3, 2, 1), dtype=int), ("a", "b"))  # a group with no label
    with pytest.raises(DomainError):
        Dataset(np.ones((2, 2, 1), dtype=int), ("a", "a"))
    with pytest.raises(DomainError):
        Dataset(np.ones((1, 2, 2), dtype=int), ("a",), ("f", "f"))


def test_config_validation():
    with pytest.raises(DomainError):
        ModelConfig(seed=1, sweeps=100, burn_in=100)
    with pytest.raises(DomainError):
        ModelConfig(seed=1, alpha=0.0)
    with pytest.raises(DomainError):
        ModelConfig(seed=1, gamma=-2.0)
    with pytest.raises(DomainError):
        ModelConfig(seed=1, sweeps=0, burn_in=0)


@pytest.mark.parametrize("field", ["alpha", "gamma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(DomainError):
        ModelConfig(seed=1, **{field: value})


def test_config_anchoring_defaults():
    assert ModelConfig(seed=1, prior=PriorKind.INDEPENDENT).anchoring_enabled
    assert ModelConfig(seed=1, prior=PriorKind.DEPENDENT).anchoring_enabled
    assert not ModelConfig(seed=1, prior=PriorKind.FREE).anchoring_enabled
    assert ModelConfig(seed=1, prior=PriorKind.FREE, anchoring=True).anchoring_enabled
    assert not ModelConfig(seed=1, prior=PriorKind.DEPENDENT, anchoring=False).anchoring_enabled


def test_prior_kind_parsing():
    assert PriorKind.from_string("Independent") is PriorKind.INDEPENDENT
    assert PriorKind.from_string(" free ") is PriorKind.FREE
    with pytest.raises(DomainError):
        PriorKind.from_string("bogus")
