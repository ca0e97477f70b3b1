"""Tests for the command-line front end."""

import argparse
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.problem == "kl"
        assert args.k == 5

    @pytest.mark.parametrize("argv", [
        ["stream", "posts.jsonl", "--workers", "2"],
        ["bench-graph", "--workers", "2"],
        ["explain", "--corpus", "posts.jsonl"],
        ["explain", "--format", "dblp"],
        ["explain", "--index-dir", "idx"],
        ["explain", "--flush-intervals", "4"],
        ["explain", "--shards", "2"],
        ["explain", "--serve", "--skew", "1.2"],
    ], ids=" ".join)
    def test_removed_options_are_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bench_graph_args(self):
        args = build_parser().parse_args(
            ["bench-graph", "-m", "5", "-n", "50", "--gap", "1"])
        assert args.m == 5
        assert args.n == 50
        assert args.gap == 1

    def test_stable_solver_defaults_to_auto(self):
        args = build_parser().parse_args(["stable", "posts.jsonl"])
        assert args.solver == "auto"
        assert args.memory_budget is None
        assert args.explain is False

    def test_solver_choices_cover_registry(self):
        from repro.engine import solver_names
        args = build_parser().parse_args(
            ["stable", "posts.jsonl", "--solver", "dfs"])
        assert args.solver == "dfs"
        for name in solver_names():
            build_parser().parse_args(
                ["stable", "posts.jsonl", "--solver", name])

    def test_unknown_solver_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stable", "posts.jsonl", "--solver", "quantum"])

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream", "posts.jsonl"])
        assert args.solver == "auto"
        assert args.backend == "auto"
        assert args.follow is False
        assert args.memory_budget is None

    def test_every_gap_default_is_the_same(self):
        """``demo`` once reset the shared ``--gap`` action, so the
        subcommands disagreed; each now parses to one default."""
        def leaves(parser, argv):
            subparsers = [action for action in parser._actions
                          if isinstance(action,
                                        argparse._SubParsersAction)]
            if not subparsers:
                yield parser, argv
            for action in subparsers:
                for name, child in action.choices.items():
                    yield from leaves(child, argv + [name])

        gaps = {}
        for parser, argv in leaves(build_parser(), []):
            if "--gap" not in parser._option_string_actions:
                continue
            required = [word for action in parser._actions
                        if action.required
                        for word in action.option_strings[:1] + ["x"]]
            gaps[" ".join(argv)] = build_parser().parse_args(
                argv + required).gap
        assert {"demo", "stable", "stream", "index build", "explain",
                "bench-graph"} <= set(gaps)
        assert set(gaps.values()) == {1}, gaps

    @pytest.mark.parametrize("command", [
        ["demo"], ["stable"], ["stream"], ["index", "build"],
        ["explain"], ["bench-graph"]], ids=" ".join)
    def test_gap_help_states_the_default(self, command):
        parser = build_parser()
        for name in command:
            parser = next(
                action.choices[name] for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))
        help_text = parser._option_string_actions["--gap"].help
        assert help_text.endswith("default: 1)")

    def test_stream_rejects_batch_only_solver(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stream", "posts.jsonl", "--solver", "dfs"])


class TestCommands:
    def _write_posts(self, tmp_path):
        """A tiny corpus with one obvious event on both days."""
        lines = []
        doc = 0
        for interval in range(2):
            for i in range(30):
                lines.append({"interval": interval,
                              "text": "beckham galaxy madrid transfer",
                              "id": f"e{doc}"})
                doc += 1
            for i in range(10):
                lines.append({"interval": interval,
                              "text": f"filler{i} words{i} noise{doc}",
                              "id": f"b{doc}"})
                doc += 1
        path = tmp_path / "posts.jsonl"
        path.write_text("\n".join(json.dumps(x) for x in lines))
        return str(path)

    def test_clusters_command(self, tmp_path, capsys):
        exit_code = main(["clusters", self._write_posts(tmp_path)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "interval 0" in out
        assert "beckham" in out

    def test_stable_command(self, tmp_path, capsys):
        exit_code = main(["stable", self._write_posts(tmp_path),
                          "--length", "1", "-k", "2"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "stable path" in out
        assert "beckham" in out

    def test_stable_command_no_paths(self, tmp_path, capsys):
        # Only one interval: no length-3 paths exist.
        lines = [{"interval": 0, "text": "solitary words here"}]
        path = tmp_path / "single.jsonl"
        path.write_text("\n".join(json.dumps(x) for x in lines))
        exit_code = main(["stable", str(path), "--length", "3"])
        assert exit_code == 1
        assert "no stable paths" in capsys.readouterr().out

    def test_bench_graph_command(self, capsys):
        exit_code = main(["bench-graph", "-m", "4", "-n", "20",
                          "-d", "2", "-k", "2"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "BFS" in out and "DFS" in out

    def test_bench_graph_reports_unified_stats(self, capsys):
        exit_code = main(["bench-graph", "-m", "4", "-n", "15",
                          "-d", "2", "-k", "2",
                          "--solvers", "bfs,dfs,ta"])
        out = capsys.readouterr().out
        assert exit_code == 0
        # Every timed solver prints its SolverStats counters.
        assert out.count("stats:") == 3
        assert "nodes_processed=" in out   # BFS counters
        assert "node_reads=" in out        # DFS counters
        assert "sorted_accesses=" in out   # TA counters

    def test_bench_graph_skips_unsupported_solver(self, capsys):
        # TA cannot answer a partial-length query; it must be
        # skipped with a reason, not crash the benchmark.
        exit_code = main(["bench-graph", "-m", "4", "-n", "15",
                          "-d", "2", "-k", "2", "--length", "2",
                          "--solvers", "ta,bfs"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "skipped" in out
        assert "BFS" in out

    def test_explain_command(self, capsys):
        exit_code = main(["explain", "-m", "9", "-n", "400", "-d", "5",
                          "--memory-budget", "1"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "execution plan" in out
        assert "solver:" in out
        assert "estimated" in out
        assert "1.0MiB" in out

    def test_explain_prints_only_executed_dimensions(self, capsys):
        assert main(["explain", "-m", "12", "-n", "90", "-d", "3",
                     "--serve", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "serving:  256 hot answers" in out
        assert "workers:  2" in out
        for absent in ("corpus:", "join:", "shards:", "segments:",
                       "hit rate", "hit-rate"):
            assert absent not in out

    def test_explain_flips_solver_with_budget(self, capsys):
        main(["explain", "-m", "9", "-n", "400", "-d", "5",
              "--length", "4"])
        unbounded = capsys.readouterr().out
        main(["explain", "-m", "9", "-n", "400", "-d", "5",
              "--length", "4", "--memory-budget", "0.001"])
        starved = capsys.readouterr().out
        assert "solver:   bfs" in unbounded
        assert "solver:   dfs" in starved

    def test_stable_command_explain_flag(self, tmp_path, capsys):
        exit_code = main(["stable", self._write_posts(tmp_path),
                          "--length", "1", "-k", "2", "--explain"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "execution plan" in out
        assert "stable path" in out

    def test_stable_command_forced_solver(self, tmp_path, capsys):
        posts = self._write_posts(tmp_path)
        outputs = []
        for solver in ("auto", "bfs", "dfs", "bruteforce"):
            exit_code = main(["stable", posts, "--length", "1",
                              "-k", "2", "--solver", solver])
            assert exit_code == 0
            outputs.append(capsys.readouterr().out)
        assert len(set(outputs)) == 1  # identical answers

    def _write_stream_posts(self, tmp_path, m=4):
        lines = []
        doc = 0
        for interval in range(m):
            for i in range(25):
                lines.append({"interval": interval,
                              "text": "beckham galaxy madrid transfer",
                              "id": f"e{doc}"})
                doc += 1
            for i in range(8):
                lines.append({"interval": interval,
                              "text": f"filler{i} words{i} noise{doc}",
                              "id": f"b{doc}"})
                doc += 1
        path = tmp_path / "stream.jsonl"
        path.write_text("\n".join(json.dumps(x) for x in lines))
        return str(path)

    def test_stream_command(self, tmp_path, capsys):
        exit_code = main(["stream", self._write_stream_posts(tmp_path),
                          "--length", "2", "-k", "2"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "stable path" in out
        assert "beckham" in out

    def test_stream_follow_prints_per_interval(self, tmp_path, capsys):
        exit_code = main(["stream", self._write_stream_posts(tmp_path),
                          "--length", "2", "-k", "2", "--follow",
                          "--explain"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "execution plan" in out
        assert "solver:   bfs" in out
        assert "interval 0" in out and "interval 3" in out
        assert "docs ->" in out

    def test_stream_matches_batch_results(self, tmp_path, capsys):
        """The streamed top-k equals the batch pipeline's over the
        same file (the Section 4.6 claim, end to end via the CLI)."""
        posts = self._write_stream_posts(tmp_path)
        assert main(["stable", posts, "--length", "2", "-k", "2"]) == 0
        batch = capsys.readouterr().out
        assert main(["stream", posts, "--length", "2", "-k", "2"]) == 0
        streamed = capsys.readouterr().out
        batch_weights = [line for line in batch.splitlines()
                         if line.startswith("stable path")]
        stream_weights = [line for line in streamed.splitlines()
                          if line.startswith("stable path")]
        assert batch_weights == stream_weights

    def test_stream_normalized_with_disk_backend(self, tmp_path,
                                                 capsys):
        state_dir = tmp_path / "state"
        exit_code = main(["stream", self._write_stream_posts(tmp_path),
                          "--length", "2", "-k", "2",
                          "--problem", "normalized",
                          "--backend", "disk",
                          "--state-dir", str(state_dir)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "stable path" in out
        assert (state_dir / "state.bin").exists()

    def test_stream_solver_problem_mismatch(self, tmp_path, capsys):
        exit_code = main(["stream", self._write_stream_posts(tmp_path),
                          "--solver", "normalized"])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "cannot stream" in err

    def test_stream_empty_input(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        exit_code = main(["stream", str(path)])
        assert exit_code == 2
        assert "no documents" in capsys.readouterr().err

    def test_demo_command_small(self, capsys):
        exit_code = main(["demo", "--vocabulary", "800",
                          "--background", "300", "--length", "2",
                          "-k", "3"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "stable path" in out


class TestHashSeedIndependence:
    """No output depends on set/dict iteration order under a salted
    ``hash()``: two hash seeds give the same bytes."""

    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    FIXTURE = os.path.join(ROOT, "examples", "data", "dblp_mini.xml")
    SRC = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))

    def _run(self, seed, argv):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=self.SRC)
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv,
             "--corpus", self.FIXTURE, "--format", "dblp"],
            env=env, capture_output=True, check=True, timeout=120)
        return done.stdout

    @staticmethod
    def _files(directory):
        found = {}
        for folder, _, names in os.walk(directory):
            for name in names:
                path = os.path.join(folder, name)
                with open(path, "rb") as handle:
                    found[os.path.relpath(path, directory)] = \
                        handle.read()
        return found

    def test_stable_output_is_seed_independent(self):
        argv = ["stable", "--explain"]
        assert self._run(0, argv) == self._run(4242, argv)

    def test_index_build_is_seed_independent(self, tmp_path):
        outputs, trees = [], []
        for seed in (0, 4242):
            directory = str(tmp_path / f"index-{seed}")
            out = self._run(seed, ["index", "build", "--dir",
                                   directory, "--explain"])
            outputs.append(out.replace(directory.encode(), b"DIR"))
            trees.append(self._files(directory))
        assert outputs[0] == outputs[1]
        assert trees[0] and trees[0] == trees[1]


class TestCorpusCommands:
    """`corpus stats` and `corpus ingest` over the three renditions of
    the mini DBLP fixture."""

    DATA = os.path.join(TestHashSeedIndependence.ROOT, "examples",
                        "data")
    BY_YEAR = ["--time-field", "year", "--bucket", "year"]
    RENDITIONS = {
        "dblp": ("dblp_mini.xml", []),
        "jsonl": ("dblp_mini.jsonl", BY_YEAR),
        "csv": ("dblp_mini.csv", BY_YEAR),
    }
    HISTOGRAM = [(0, 22), (1, 22), (2, 30), (3, 31), (4, 31), (5, 30)]

    @staticmethod
    def _histogram(out):
        rows = []
        for line in out.splitlines():
            if line.startswith("  interval "):
                interval, count = line.split(":")[0].split()[1], \
                    line.split(":")[1].split()[0]
                rows.append((int(interval), int(count)))
        return rows

    @pytest.mark.parametrize("fmt", sorted(RENDITIONS))
    def test_stats_measures_every_rendition_alike(self, fmt, capsys):
        name, extra = self.RENDITIONS[fmt]
        path = os.path.join(self.DATA, name)
        assert main(["corpus", "stats", path, "--format", fmt,
                     *extra]) == 0
        out = capsys.readouterr().out
        assert (f"corpus: 166 docs over 6 intervals, max 31/interval "
                f"from {path} ({fmt})") in out
        assert self._histogram(out) == self.HISTOGRAM
        # The fullest interval draws the full 40-column bar.
        assert "31 docs  " + "#" * 40 in out

    def test_ingest_round_trips_through_stats(self, tmp_path, capsys):
        xml = os.path.join(self.DATA, "dblp_mini.xml")
        output = str(tmp_path / "canonical.jsonl")
        assert main(["corpus", "ingest", xml, "--format", "dblp",
                     "--output", output]) == 0
        assert (f"wrote 166 documents over 6 intervals to {output}"
                in capsys.readouterr().out)
        assert main(["corpus", "stats", output]) == 0
        assert self._histogram(capsys.readouterr().out) == \
            self.HISTOGRAM

    def test_ingest_to_stdout_keeps_the_report_off_the_pipe(self,
                                                           capsys):
        xml = os.path.join(self.DATA, "dblp_mini.xml")
        assert main(["corpus", "ingest", xml, "--format", "dblp"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line)
                   for line in captured.out.splitlines()]
        assert len(records) == 166
        assert {r["interval"] for r in records} == set(range(6))
        assert "166 parsed" in captured.err
        assert "parsed" not in captured.out

    def test_corpus_stats_measure_and_describe(self):
        from repro.cli import CorpusStats
        from repro.text import IntervalCorpus
        corpus = IntervalCorpus()
        for doc_id, interval in (("a", 0), ("b", 1), ("c", 1)):
            corpus.add_text(doc_id, interval, "spatial join")
        stats = CorpusStats.measure(corpus, source="posts.jsonl",
                                    format="jsonl")
        assert (stats.num_intervals, stats.num_documents,
                stats.max_interval_documents) == (2, 3, 2)
        assert stats.describe() == ("3 docs over 2 intervals, max "
                                    "2/interval from posts.jsonl "
                                    "(jsonl)")

    def test_corpus_stats_of_an_empty_corpus(self):
        from repro.cli import CorpusStats
        from repro.text import IntervalCorpus
        stats = CorpusStats.measure(IntervalCorpus())
        assert stats.max_interval_documents == 0
        assert stats.describe() == "0 docs over 0 intervals, max " \
                                   "0/interval"
