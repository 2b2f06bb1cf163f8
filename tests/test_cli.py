import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ratsos
from ratsos import relax
from ratsos.cli import EXIT_BUILD, EXIT_PARSE, EXIT_SOLVE_NOT_OK, main
from ratsos.families import gen_rosenbrock_ratio, gen_unit_ball_mix
from ratsos.problem import parse, serialize
from ratsos.sdp import SolveReport, to_standard_form


@pytest.fixture
def ball_mix_file(tmp_path):
    path = tmp_path / "ballmix.srfo"
    path.write_text(serialize(gen_unit_ball_mix()))
    return str(path)


@pytest.fixture
def trivial_file(tmp_path):
    path = tmp_path / "trivial.srfo"
    path.write_text("vars x1\nratio: (x1^2)/(1)\nconstraint: 1 - x1^2 >= 0\n")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSolve:
    def test_dense_order_three(self, capsys, ball_mix_file):
        code, payload = run_json(
            capsys, ["solve", ball_mix_file, "--method", "dense", "--order", "3"]
        )
        assert code == 0
        assert payload["schema"] == 1
        assert payload["bound"] == pytest.approx(-0.3465, abs=1e-3)
        assert payload["status"] in ("optimal", "near_optimal")
        assert payload["certified"] is True
        assert set(payload["time_ms"]) == {"build", "solve"}
        assert isinstance(payload["block_size_histogram"], dict)

    def test_residuals_and_schur_blocks_reported(self, capsys, ball_mix_file):
        code, payload = run_json(
            capsys, ["solve", ball_mix_file, "--method", "dense", "--order", "2"]
        )
        assert code == 0
        assert payload["status"] == "optimal"
        assert 0.0 <= payload["pinf"] <= 1e-8
        assert 0.0 <= payload["dinf"] <= 1e-8
        # three measures tied by 18 linking rows, each factored on its own
        assert payload["schur_blocks"] == [35, 35, 35]
        assert payload["krylov_applies"] > 0

    def test_unusable_solve_writes_strict_json(self, capsys, trivial_file,
                                               monkeypatch):
        def failed_solve(sf, **kwargs):
            return SolveReport(
                status="numerical_issue", primal=float("nan"),
                dual=float("-inf"), gap=float("nan"), iterations=3,
            )

        def reject(name):
            raise ValueError(f"non-finite JSON constant {name}")

        monkeypatch.setattr(relax, "solve_internal", failed_solve)
        code = main(["solve", trivial_file, "--method", "dense", "--order", "1"])
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert code == EXIT_SOLVE_NOT_OK
        assert payload["status"] == "numerical_issue"
        for key in ("bound", "primal", "dual", "gap", "pinf", "dinf"):
            assert payload[key] is None, key

    def test_ratio_order_case_three(self, capsys, ball_mix_file):
        code, payload = run_json(
            capsys,
            [
                "solve", ball_mix_file, "--method", "signsym",
                "--order", "2", "--ratio-order", "3,1,2",
            ],
        )
        assert code == 0
        assert payload["bound"] == pytest.approx(-0.4738, abs=1e-3)

    def test_trivial_dense(self, capsys, trivial_file):
        code, payload = run_json(
            capsys, ["solve", trivial_file, "--method", "dense", "--order", "1"]
        )
        assert code == 0
        assert payload["bound"] == pytest.approx(0.0, abs=1e-6)

    def test_order_sweep(self, capsys, ball_mix_file):
        code, payload = run_json(
            capsys, ["solve", ball_mix_file, "--orders", "2..3"]
        )
        assert code == 0
        ks = [entry["k"] for entry in payload["sweep"]]
        assert ks == [2, 3]

    def test_default_order_is_minimum(self, capsys, trivial_file):
        code, payload = run_json(capsys, ["solve", trivial_file])
        assert code == 0
        assert payload["k"] == 1

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.srfo"
        bad.write_text("vars x1\nratio: ( x1 + ) / (1)\n")
        assert main(["solve", str(bad)]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_build_error_exit_code(self, capsys, tmp_path):
        # minimum order 3: the build rejects order 1 of a single solve, a
        # sweep and an export before anything is solved or written
        f = tmp_path / "deg.srfo"
        f.write_text("vars x1\nratio: (x1^6)/(1)\nconstraint: 1 - x1^2 >= 0\n")
        out = str(tmp_path / "out")
        for flags in (["--order", "1"], ["--orders", "1..3"],
                      ["--solver", "sdpa-export", "--order", "1"]):
            assert main(["solve", str(f), *flags, "--out", out]) == EXIT_BUILD
            assert capsys.readouterr().err == (
                "build error: relaxation order 1 is below the minimum order 3\n"
            )
            assert list(tmp_path.iterdir()) == [f]

    @pytest.mark.parametrize("flags", [
        ["--orders", "3..2"],
        ["--orders", "2-3"],
        ["--orders", "x..3"],
        ["--ratio-order", "1,x"],
    ], ids=["empty-range", "dash", "non-integer", "ratio-order"])
    def test_malformed_flags_are_build_errors(self, capsys, ball_mix_file,
                                              flags):
        assert main(["solve", ball_mix_file, *flags]) == EXIT_BUILD
        err = capsys.readouterr().err
        assert err.startswith("build error:") and flags[0] in err

    def test_sdpa_export(self, capsys, trivial_file, tmp_path):
        target = str(tmp_path / "out.dat-s")
        code, payload = run_json(
            capsys,
            ["solve", trivial_file, "--solver", "sdpa-export", "--out", target],
        )
        assert code == 0
        assert payload["status"] == "exported"
        from ratsos.sdp import read_sdpa, solve_internal

        back = read_sdpa(target)
        rep = solve_internal(back, tol=1e-9)
        assert rep.primal == pytest.approx(0.0, abs=1e-6)

    def test_maximize_flag(self, capsys, tmp_path):
        f = tmp_path / "max.srfo"
        f.write_text(
            "vars x1\nratio: ( 2 - x1^2 )/( 1 )\nconstraint: 1 - x1^2 >= 0\n"
        )
        code, payload = run_json(
            capsys, ["solve", str(f), "--maximize", "--order", "1"]
        )
        assert code == 0
        assert payload["bound"] == pytest.approx(2.0, abs=1e-6)

    def test_maximize_values_in_objective_sense(self, capsys, tmp_path):
        # the bench row: bound, primal and dual all upper estimates of the
        # maximum 10, none of them in the solver's minimization sign
        f = tmp_path / "rosenbrock.srfo"
        f.write_text(serialize(gen_rosenbrock_ratio(10)))
        code, payload = run_json(capsys, ["solve", str(f), "--method", "cs-signsym",
                                          "--order", "2", "--maximize"])
        assert code == 0
        for key in ("bound", "primal", "dual"):
            assert payload[key] == pytest.approx(10.0, abs=1e-6), key

    def test_solve_loads_no_scipy_package(self, ball_mix_file, tmp_path):
        # a fresh interpreter: no scipy module is left in sys.modules
        script = (
            "import sys\n"
            "from ratsos import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "sys.exit(code)\n"
        )
        out = tmp_path / "res.json"
        src = str(Path(ratsos.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, "solve", ball_mix_file, "--order", "2",
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert json.loads(out.read_text())["status"] == "optimal"

    def test_out_file(self, capsys, trivial_file, tmp_path):
        target = tmp_path / "res.json"
        code = main(["solve", trivial_file, "--order", "1", "--out", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["schema"] == 1

    def test_ratio_order_rejected_for_split_methods(self, capsys, ball_mix_file):
        for method in ("cs", "cs-signsym", "epigraph"):
            code = main(["solve", ball_mix_file, "--method", method,
                         "--order", "2", "--ratio-order", "2,1,3"])
            assert code == EXIT_BUILD, method
            assert "ratio order" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["dense", "signsym", "cs"])
    def test_denominator_vanishing_on_the_equalities(self, capsys, tmp_path, method):
        # q = 1 - x1^2 - x2^2 is zero on the circle, so the normalization
        # row L(q) = 1 has no nonzero coefficient left in the quotient
        f = tmp_path / "circle.srfo"
        f.write_text("vars x1 x2\nratio: (x1)/(1 - x1^2 - x2^2)\n"
                     "constraint: 1 - x1^2 - x2^2 == 0\n")
        code = main(["solve", str(f), "--method", method, "--order", "2"])
        assert code == EXIT_BUILD
        assert ("the denominator of ratio 1 vanishes on the equality constraints"
                in capsys.readouterr().err)

    def test_sdpa_export_rejects_orders(self, capsys, trivial_file, tmp_path):
        target = tmp_path / "out.dat-s"
        code = main(["solve", trivial_file, "--solver", "sdpa-export",
                     "--orders", "1..2", "--out", str(target)])
        assert code == EXIT_BUILD
        assert "--orders" in capsys.readouterr().err
        assert not target.exists()

    def test_psd_cap_env_override(self, capsys, ball_mix_file, monkeypatch):
        monkeypatch.setenv("RATSOS_PSD_CAP", "5")
        code = main(["solve", ball_mix_file, "--method", "dense", "--order", "2"])
        assert code == 5
        assert "export" in capsys.readouterr().err


class TestAnalyze:
    def test_ball_mix_ranks(self, capsys, ball_mix_file):
        assert main(["analyze", ball_mix_file]) == 0
        out = capsys.readouterr().out
        assert "measure 1: sign-symmetry rank 0" in out
        assert "measure 2: sign-symmetry rank 2" in out
        assert "measure 3: sign-symmetry rank 1" in out

    def test_all_even_full_rank(self, capsys, tmp_path):
        f = tmp_path / "even.srfo"
        f.write_text(
            "vars x1 x2\nratio: (x1^2)/(1 + x1^2 + x2^2)\n"
            "constraint: 1 - x1^2 - x2^2 >= 0\n"
        )
        assert main(["analyze", str(f)]) == 0
        out = capsys.readouterr().out
        assert "rank 2" in out

    def test_rip_witness_printed(self, capsys, tmp_path):
        f = tmp_path / "rip.srfo"
        f.write_text(
            "vars x1 x2 x3 x4\n"
            "ratio: (x1^2 + x2^2)/(1)\n"
            "ratio: (x3^2 + x4^2)/(1)\n"
            "ratio: (x1^2 + x3^2)/(1)\n"
            "constraint: 2 - x1^2 - x2^2 >= 0\n"
            "constraint: 2 - x3^2 - x4^2 >= 0\n"
            "constraint: 2 - x1^2 - x3^2 >= 0\n"
            "clique: 1 2\nclique: 3 4\nclique: 1 3\n"
        )
        assert main(["analyze", str(f)]) == 0
        out = capsys.readouterr().out
        assert "violated by the given order at clique 3" in out
        assert "repaired order" in out

    def test_histograms_match_the_built_blocks(self, capsys, tmp_path):
        # the sphere equalities shrink every block to the quotient basis
        target = tmp_path / "chain.srfo"
        assert main(["gen", "reznick", "--M", "6", "--d", "2", "--out", str(target)]) == 0
        assert main(["analyze", str(target)]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("order 6 moment-block histograms: "))
        hists = line.split(": ", 1)[1].split(" | ")
        rsdp = relax.build(parse(target.read_text()), "signsym", 6)
        assert len(hists) == len(rsdp.measures) == 5
        for mi, hist in enumerate(hists):
            sizes = Counter(b.size for _, b in rsdp.measures[mi].moment)
            assert hist == "{" + ", ".join(
                f"{s}x{c}" for s, c in sorted(sizes.items(), reverse=True)) + "}"
        assert hists[0] == "{10x1, 6x6, 3x1}"


class TestGen:
    def test_gen_parse_solve_pipeline(self, capsys, tmp_path):
        # this small chain is exact one order past the minimum
        target = tmp_path / "chain.srfo"
        assert main(
            ["gen", "reznick", "--M", "3", "--d", "1", "--out", str(target)]
        ) == 0
        prob = parse(target.read_text())
        assert prob.num_ratios == 2
        code, payload = run_json(
            capsys, ["solve", str(target), "--method", "signsym", "--order", "4"]
        )
        assert code == 0
        assert payload["bound"] == pytest.approx(2.0, abs=1e-2)

    def test_gen_rand_reproducible(self, capsys):
        outs = []
        for _ in range(2):
            assert main(
                ["gen", "rand", "--N", "4", "--n", "4", "--d", "3",
                 "--xi", "0.2", "--seed", "7"]
            ) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_gen_unknown_family(self, capsys):
        assert main(["gen", "nosuch"]) == EXIT_BUILD

    def test_gen_missing_params(self, capsys):
        assert main(["gen", "reznick"]) == EXIT_BUILD
        assert "needs" in capsys.readouterr().err


class TestBench:
    def test_table1_markdown(self, capsys):
        assert main(["bench", "table1"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.startswith("|")]
        # header + separator + 11 rows
        assert len(lines) == 13
        assert "-0.3465" in out

    def test_table8_csv(self, capsys):
        assert main(["bench", "table8", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "problem,method,k,bound,status,time_s"
        assert len(out.splitlines()) == 4

    def test_unknown_table(self, capsys):
        assert main(["bench", "table99"]) == EXIT_BUILD


def load_bench_spans(monkeypatch):
    """bench/spans.py, loaded by path (bench/ is not a package)."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses resolve annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


class TestBenchTracer:
    def test_tracer_targets_exist(self, monkeypatch):
        # the benchmark tracer wraps these names on the modules' globals;
        # a rename would break `bench/run.py --trace 1` silently
        import importlib

        spans = load_bench_spans(monkeypatch)
        assert spans.TARGETS
        for mod_name, attr, _ in spans.TARGETS:
            module = importlib.import_module(f"ratsos.{mod_name}")
            assert callable(getattr(module, attr, None)), (mod_name, attr)

    def test_standard_form_sizes_keep_their_meaning(self, monkeypatch):
        # psd_dim counts each of the four 1x1 blocks once; max_block is the
        # largest moment block
        spans = load_bench_spans(monkeypatch)
        sf = to_standard_form(relax.build(gen_unit_ball_mix(), "signsym", 2))
        sizes = spans.standard_form_sizes(sf)
        assert sizes["psd_dim"] == 42
        assert sizes["max_block"] == 10
