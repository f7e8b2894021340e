import numpy as np
import pytest

import teleportnet as tn
from teleportnet import Method, NetworkShape, ResourceReport, account, crossover_table
from teleportnet.protocol import baseline_resource_sizes


class TestAccount:
    def test_smallest_network_four_vs_three(self):
        shape = NetworkShape.single(1, 1)
        assert account(Method.ENTANGLING, shape).aux_qubits == 4
        assert account(Method.GHZ_BASELINE, shape).aux_qubits == 3

    def test_three_messages_crosses_over(self):
        shape = NetworkShape.single(3, 1)
        assert account(Method.ENTANGLING, shape).aux_qubits == 8
        assert account(Method.GHZ_BASELINE, shape).aux_qubits == 9

    def test_two_receivers(self):
        shape = NetworkShape((1, 1), 2)
        assert account(Method.ENTANGLING, shape).aux_qubits == 7  # n + 5
        assert account(Method.GHZ_BASELINE, shape).aux_qubits == 8  # 2n + 4

    @pytest.mark.parametrize("counts,n", [((5,), 2), ((2, 3), 1), ((1, 1, 1), 4)])
    def test_per_agent_columns(self, counts, n):
        """Every field of both ledgers against the paper's closed forms: each agent holds, rotates and
        measures one qubit in the entangling protocol and one per message qubit in the baseline."""
        shape = NetworkShape(counts, n)
        total, k = sum(counts), len(counts)
        assert account(Method.ENTANGLING, shape) == ResourceReport(
            Method.ENTANGLING, 2 * total + n + 1, 1, 1, 1, (1,) * k, total)
        assert account(Method.GHZ_BASELINE, shape) == ResourceReport(
            Method.GHZ_BASELINE, total * (n + 2), total, total, total, counts, total)

    def test_classical_bits_per_receiver(self):
        shape = NetworkShape((2, 3), 1)
        assert account(Method.ENTANGLING, shape).classical_bits_per_agent == (1, 1)
        assert account(Method.GHZ_BASELINE, shape).classical_bits_per_agent == (2, 3)

    def test_bell_measurements_match_between_methods(self):
        for shape in (NetworkShape.single(4, 2), NetworkShape((1, 2, 3), 1)):
            new = account(Method.ENTANGLING, shape)
            old = account(Method.GHZ_BASELINE, shape)
            assert new.bell_measurements == old.bell_measurements == shape.total_messages

    def test_unknown_method_is_refused(self):
        with pytest.raises(ValueError, match="unknown method 'ghz'"):
            account("ghz", NetworkShape.single(1, 1))

    def test_large_sweep_formulas(self):
        shape = NetworkShape.single(10, 3)
        assert account(Method.ENTANGLING, shape).aux_qubits == 24
        assert account(Method.GHZ_BASELINE, shape).aux_qubits == 50


class TestAllocationConsistency:
    @pytest.mark.parametrize("counts,n", [((1,), 1), ((3,), 1), ((2,), 3), ((1, 1), 2), ((2, 1), 2)])
    def test_entangling_counts_match_builder(self, counts, n):
        shape = NetworkShape(counts, n)
        state, _ = tn.prepare_control_resource(shape)
        assert account(Method.ENTANGLING, shape).aux_qubits == state.num_qubits

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 2), (2, 3)])
    def test_baseline_counts_match_runner(self, m, n):
        shape = NetworkShape.single(m, n)
        assert account(Method.GHZ_BASELINE, shape).aux_qubits == sum(baseline_resource_sizes(shape))


class TestCrossoverTable:
    def test_advantage_first_at_three_messages(self):
        table = crossover_table(1, range(1, 6))
        assert table.first_dominating_m == 3
        by_m = {row.m: row for row in table.rows}
        assert by_m[1].aux_entangling == 4 and by_m[1].aux_baseline == 3
        assert by_m[2].aux_equal and not by_m[2].aux_advantage
        assert by_m[2].ops_advantage
        assert by_m[3].aux_advantage

    def test_ops_column_at_two_messages(self):
        row = crossover_table(1, [2]).rows[0]
        assert row.ops_per_agent_entangling == 1
        assert row.ops_per_agent_baseline == 2

    def test_monotone_advantage(self):
        for n in (1, 2, 4):
            gaps = [
                row.aux_baseline - row.aux_entangling
                for row in crossover_table(n, range(1, 12)).rows
            ]
            assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            crossover_table(1, [])

    @pytest.mark.parametrize("m", [2.5, True, np.True_, "3"], ids=["2.5", "True", "np.True_", "str"])
    def test_non_integral_m_is_refused(self, m):
        """A message count is refused as ``NetworkShape`` refuses it, not truncated to a row."""
        with pytest.raises(ValueError, match="m takes integers, got"):
            crossover_table(1, [m])

    def test_integral_m_of_any_type_is_accepted(self):
        assert [row.m for row in crossover_table(2, [np.int64(4), 3.0, 1]).rows] == [1, 3, 4]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_flags_follow_the_reported_counts(self, n):
        for row in crossover_table(n, range(1, 13)).rows:
            assert row.ops_advantage == (row.ops_per_agent_entangling < row.ops_per_agent_baseline)
            assert row.aux_advantage == (row.aux_entangling < row.aux_baseline)
            assert row.dominates == (row.aux_advantage and row.ops_advantage)
