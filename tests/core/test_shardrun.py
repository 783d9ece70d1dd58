"""Tests for the batched sharded kernel (repro.core.shardrun)."""

import dataclasses
import json

import pytest

from repro.cliutil import dump_json_document
from repro.core.shardrun import (
    ShardProgram,
    ShardRunConfig,
    build_shardrun_parser,
    run_shardrun,
    shardrun_main,
)

# Small but non-trivial: enough flow that every shard trades and the
# index moves, cheap enough to run twice per test.
SMALL = ShardRunConfig(
    n_participants=2000,
    n_symbols=10,
    n_shards=4,
    rate_per_participant_s=25.0,
    duration_s=0.15,
)


class TestShardRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRunConfig(n_shards=11, n_symbols=10)
        with pytest.raises(ValueError):
            ShardRunConfig(n_shards=0)
        with pytest.raises(ValueError):
            ShardRunConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            ShardRunConfig(n_participants=0)
        with pytest.raises(ValueError):
            ShardRunConfig(portfolio_buckets=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("min_qty", 0),
            ("max_qty", 0),  # below the default min_qty of 1
            ("market_order_fraction", 1.5),
            ("market_order_fraction", -0.1),
            ("aggression", -0.5),
            ("aggression", 1.01),
            ("rate_per_participant_s", 0.0),
            ("rate_per_participant_s", -1.0),
        ],
    )
    def test_rejects_out_of_range_workload_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            ShardRunConfig(**{field: value})

    def test_workload_field_edges_stay_valid(self):
        ShardRunConfig(market_order_fraction=0.0, aggression=0.0)
        ShardRunConfig(market_order_fraction=1.0, aggression=1.0)
        ShardRunConfig(min_qty=5, max_qty=5)

    def test_lookahead_derivation(self):
        config = ShardRunConfig(md_publish_interval_ms=10.0, gateway_base_latency_us=80.0)
        assert config.lookahead_ns() == 10_000_000 + 2 * 80_000

    def test_window_count_covers_duration(self):
        config = SMALL
        assert config.n_windows() * config.lookahead_ns() >= config.duration_ns()
        assert (config.n_windows() - 1) * config.lookahead_ns() < config.duration_ns()

    def test_config_echo_is_sorted(self):
        keys = list(SMALL.to_dict())
        assert keys == sorted(keys)


class TestShardProgram:
    def test_shard_workload_depends_on_shard_id_not_placement(self):
        # Shard 2 built alone produces the same windows as shard 2
        # built alongside its siblings: RNG streams are keyed by id.
        alone = ShardProgram(SMALL, 2)
        sibling = ShardProgram(SMALL, 2)
        windows = [(w, (w + 1) * SMALL.lookahead_ns()) for w in range(3)]
        feedback = {"index": None}
        for w, t_end in windows:
            a = alone.run_window(w, t_end, feedback)
            b = sibling.run_window(w, t_end, feedback)
            assert a == b
            feedback = {"index": 10_000 + w}
        assert alone.finish() == sibling.finish()

    def test_feedback_moves_prices(self):
        # Same shard, two different feedback histories: the global
        # index genuinely couples into local matching.
        neutral = ShardProgram(SMALL, 0)
        pushed = ShardProgram(SMALL, 0)
        t1 = SMALL.lookahead_ns()
        assert neutral.run_window(0, t1, {"index": None}) == pushed.run_window(
            0, t1, {"index": None}
        )
        r_neutral = neutral.run_window(1, 2 * t1, {"index": 10_000})
        r_pushed = pushed.run_window(1, 2 * t1, {"index": 14_000})
        assert r_neutral != r_pushed
        assert neutral.finish()["last_prices"] != pushed.finish()["last_prices"]

    def test_bucket_accounting_is_zero_sum(self):
        program = ShardProgram(SMALL, 1)
        program.run_window(0, SMALL.lookahead_ns(), {"index": None})
        final = program.finish()
        assert final["net_position"] == 0
        assert final["net_cash"] == 0
        assert final["stats"]["trades"] > 0
        assert final["abs_position"] > 0


class TestRunShardrun:
    def test_deterministic_across_runs(self):
        assert run_shardrun(SMALL) == run_shardrun(SMALL)

    def test_jobs_report_byte_identity(self):
        # The headline contract: process-parallel execution emits
        # byte-identical JSON to the inline golden run.
        inline = dump_json_document(run_shardrun(SMALL, jobs=1))
        sharded = dump_json_document(run_shardrun(SMALL, jobs=3))
        assert sharded == inline

    def test_report_shape_and_conservation(self):
        report = run_shardrun(SMALL)
        assert report["schema"] == "repro-shardrun/1"
        assert report["config"] == SMALL.to_dict()
        assert report["windows"] == SMALL.n_windows() == len(report["index_path"])
        assert len(report["per_shard"]) == SMALL.n_shards
        totals = report["totals"]
        assert totals["orders"] == totals["arrivals"] - totals["unprocessed"]
        assert totals["trades"] > 0
        assert report["conservation"]["net_position"] == 0
        assert report["conservation"]["net_cash"] == 0
        # No nondeterministic fields anywhere in the document.
        assert "wall" not in json.dumps(report)

    def test_seed_changes_report(self):
        other = dataclasses.replace(SMALL, seed=SMALL.seed + 1)
        assert run_shardrun(other) != run_shardrun(SMALL)

    def test_all_orders_eventually_processed(self):
        # Orders stamped past one window's edge are carried by the heap
        # and matched later; only stamps past the final horizon remain.
        report = run_shardrun(SMALL)
        totals = report["totals"]
        assert totals["unprocessed"] < totals["arrivals"] * 0.01
        per_status = (
            totals["accepted"]
            + totals["partially_filled"]
            + totals["filled"]
            + totals["cancelled"]
            + totals["rejected"]
        )
        assert per_status == totals["orders"]


class TestShardrunCli:
    def test_parser_defaults(self):
        args = build_shardrun_parser().parse_args([])
        assert args.jobs == 1
        assert args.json is None

    def test_json_flag_const(self):
        args = build_shardrun_parser().parse_args(["--json"])
        assert args.json == "-"

    def test_main_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = shardrun_main(
            [
                "--participants", "500",
                "--symbols", "4",
                "--shards", "2",
                "--rate", "30",
                "--duration", "0.05",
                "--json", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "repro-shardrun/1"
        stdout = capsys.readouterr().out
        assert "orders/s" in stdout

    def test_cli_jobs_byte_identity(self, tmp_path):
        argv = [
            "--participants", "500",
            "--symbols", "4",
            "--shards", "2",
            "--rate", "30",
            "--duration", "0.05",
        ]
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        assert shardrun_main(argv + ["--jobs", "1", "--json", str(one)]) == 0
        assert shardrun_main(argv + ["--jobs", "2", "--json", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()
