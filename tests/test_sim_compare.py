"""Mutation tests for the bit-identity comparator (:mod:`repro.sim.compare`).

``result_mismatches`` is the single definition of "bit-identical" that the
kernel-equivalence and fast-forward suites rely on; a comparator that
silently ignores an observable would let a divergent kernel pass the whole
matrix.  Each test here injects one specific corruption into an otherwise
identical pair of results — a counter off by one, a dropped stage
completion, a reordered trace, a shuffled dict insertion order — and
asserts the comparator names exactly that observable.
"""

import pytest

from repro.sim import assert_results_identical, result_mismatches, simulate

from test_sim_fast_forward import ARCH64, _chain


@pytest.fixture()
def pair():
    """Two independently simulated, bit-identical results of one workload."""
    workload = _chain(n_jobs=12)
    return (
        simulate(ARCH64, workload),
        simulate(ARCH64, workload),
    )


class TestIdentity:
    def test_independent_runs_are_bit_identical(self, pair):
        reference, mutant = pair
        assert result_mismatches(reference, mutant) == []
        assert_results_identical(reference, mutant)

    def test_provenance_flag_is_checked_unless_ignored(self, pair):
        reference, mutant = pair
        mutant.fast_forwarded = True
        mismatches = result_mismatches(reference, mutant)
        assert len(mismatches) == 1 and "fast_forwarded" in mismatches[0]
        assert result_mismatches(reference, mutant, ignore_provenance=True) == []


class TestInjectedMutations:
    def test_counter_off_by_one_caught(self, pair):
        reference, mutant = pair
        mutant.tracer.hbm_bytes += 1
        mismatches = result_mismatches(reference, mutant)
        assert any("tracer.hbm_bytes" in m for m in mismatches)

    def test_makespan_off_by_one_caught(self, pair):
        reference, mutant = pair
        mutant.makespan_cycles += 1
        mismatches = result_mismatches(reference, mutant)
        assert any("makespan_cycles" in m for m in mismatches)

    def test_dropped_stage_completion_caught(self, pair):
        reference, mutant = pair
        sid = next(iter(mutant.tracer.stage_completions))
        mutant.tracer.stage_completions[sid].pop()
        mismatches = result_mismatches(reference, mutant)
        assert any(f"tracer.stage_completions[{sid}]" in m for m in mismatches)

    def test_reordered_trace_caught(self, pair):
        """Two completions swapped in place: same multiset, wrong order."""
        reference, mutant = pair
        completions = None
        for sid, trace in mutant.tracer.stage_completions.items():
            if len(trace) >= 2 and trace[0] != trace[-1]:
                completions = (sid, trace)
                break
        assert completions is not None, "fixture workload has no reorderable trace"
        sid, trace = completions
        trace[0], trace[-1] = trace[-1], trace[0]
        mismatches = result_mismatches(reference, mutant)
        assert any(f"tracer.stage_completions[{sid}]" in m for m in mismatches)

    def test_shuffled_cluster_insertion_order_caught(self, pair):
        """Same clusters, same activity, reversed dict order: the payload
        serialises insertion order, so the comparator must flag it."""
        reference, mutant = pair
        tracer = mutant.tracer
        assert len(tracer.clusters) >= 2
        tracer.clusters = dict(reversed(list(tracer.clusters.items())))
        mismatches = result_mismatches(reference, mutant)
        assert any("tracer.clusters order" in m for m in mismatches)

    def test_cluster_activity_drift_caught(self, pair):
        reference, mutant = pair
        cid = next(iter(mutant.tracer.clusters))
        mutant.tracer.clusters[cid].analog += 1
        mismatches = result_mismatches(reference, mutant)
        assert any(f"tracer.clusters[{cid}]" in m for m in mismatches)

    def test_link_busy_drift_caught(self, pair):
        reference, mutant = pair
        link = next(iter(mutant.tracer.link_busy))
        mutant.tracer.link_busy[link] += 1
        mismatches = result_mismatches(reference, mutant)
        assert any("tracer.link_busy" in m for m in mismatches)

    def test_assert_helper_names_the_observable(self, pair):
        reference, mutant = pair
        mutant.tracer.n_transfers += 1
        with pytest.raises(AssertionError, match="tracer.n_transfers"):
            assert_results_identical(reference, mutant)
