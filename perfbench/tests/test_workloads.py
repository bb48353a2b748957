"""The seeded input generator."""

import math

import pytest

import workloads


@pytest.mark.parametrize("wl", workloads.WORKLOADS)
def test_same_seed_same_inputs(wl):
    a = workloads.rounds(wl, 7, 2)
    assert a == workloads.rounds(wl, 7, 2)
    assert workloads.digest(a) == workloads.digest(workloads.rounds(wl, 7, 2))
    assert workloads.digest(a) != workloads.digest(workloads.rounds(wl, 8, 2))
    # round r does not depend on how many rounds were drawn
    assert workloads.rounds(wl, 7, 3)[:2] == a


def test_probe_is_seeded_and_holds_the_excluded_entries():
    assert workloads.probe(3) == workloads.probe(3)
    assert workloads.digest(workloads.probe(3)) != workloads.digest(workloads.probe(4))
    probe = workloads.probe(3)
    for slot, bad in workloads.EXCLUDED.items():
        assert all(workloads.catalog(slot)[i] in probe for i in bad)


def test_catalogs_are_fixed_and_excluded_entries_never_timed():
    assert workloads.catalog("kt") == workloads.catalog.__wrapped__("kt")
    for wl in workloads.WORKLOADS:
        timed = [op for r in workloads.rounds(wl, 11, 3) for op in r]
        for slot, bad in workloads.EXCLUDED.items():
            assert not any(workloads.catalog(slot)[i] in timed for i in bad)


def test_sources_sum_to_exactly_one():
    for rnd in workloads.rounds("alphabet-scale", 5, 2):
        for op in rnd:
            if "probs" in op["args"]:
                assert math.fsum(op["args"]["probs"]) == 1.0
                assert min(op["args"]["probs"]) > 0.0


def test_sweeps_are_the_documented_figure_commands():
    for rnd in workloads.rounds("sweep-1d", 5, 3):
        kt = [op for op in rnd if op["fam"] == "cli.kt"]
        assert [op["rows"] for op in kt] == [5000, 150, 150, 150]
        assert [len(op["args"]["probs"]) for op in kt] == [2, 2, 3, 4]
        simo = [op for op in rnd if op["fam"] == "cli.simo"]
        assert [len(op["args"]["sigma_sq"]) for op in simo] == [1, 2, 3, 4]
        for op in simo:
            assert op["args"]["argv"][-1] == "--snr-db=-10.0:30.0:0.5"
            assert op["rows"] == 81


def test_variance_ops_pair_alphabet_sizes():
    for seed in (1, 2):
        for rnd in workloads.rounds("alphabet-scale", seed, 6):
            ks = [len(op["args"]["probs"]) for op in rnd
                  if op["fam"] == "coding.empirical_entropy_var"]
            assert len(ks) == 2 and sum(ks) == 11 and min(ks) in (3, 4, 5)
