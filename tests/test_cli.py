"""Command-line interface: outputs, exit codes, determinism, schemas."""

import json
from pathlib import Path

import numpy as np
import pytest

from gfisher.cli import main

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def load_schema_validator(name: str):
    from jsonschema import Draft7Validator
    from referencing import Registry, Resource

    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        schema = json.loads(path.read_text())
        resources.append((schema["$id"], Resource.from_contents(schema)))
    registry = Registry().with_resources(resources)
    schema = json.loads((SCHEMA_DIR / name).read_text())
    return Draft7Validator(schema, registry=registry)


@pytest.fixture()
def workdir(tmp_path):
    stat = tmp_path / "stat.json"
    stat.write_text(json.dumps({"degrees": [2, 2, 2], "weights": [1, 1, 1], "side": "two"}))
    sigma = tmp_path / "sigma.csv"
    np.savetxt(sigma, np.eye(3), delimiter=",", fmt="%.17g")
    pvals = tmp_path / "p.csv"
    np.savetxt(pvals, np.exp([[-1.0, -1.0, -1.0]]), delimiter=",", fmt="%.17g")
    return tmp_path


class TestPvalueCommand:
    def test_fisher_qform_moments(self, workdir, capsys):
        # hyb fits on the q surrogate's moments: T = 6 and the chi2_6
        # survival 0.4232, frozen from chi2.sf(6, 6)
        code = main(
            [
                "pvalue",
                "--stat", str(workdir / "stat.json"),
                "--sigma", str(workdir / "sigma.csv"),
                "--input", str(workdir / "p.csv"),
                "--kind", "p",
                "--method", "hyb",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistic"] == pytest.approx(6.0, rel=1e-12)
        assert payload["pvalue"] == pytest.approx(0.42319008112684364, abs=1e-6)
        load_schema_validator("pvalue_result.schema.json").validate(payload)

    def test_mr_empirical_close_to_exact(self, workdir, capsys):
        code = main(
            [
                "pvalue",
                "--stat", str(workdir / "stat.json"),
                "--sigma", str(workdir / "sigma.csv"),
                "--input", str(workdir / "p.csv"),
                "--kind", "p",
                "--method", "mr",
                "--reps", "20000",
                "--seed", "3",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pvalue"] == pytest.approx(0.4232, abs=0.02)

    def test_gb_equals_mr_under_independence(self, workdir, capsys):
        outs = []
        # hyb is mr on the q surrogate's moments
        for method in ("gb", "hyb"):
            code = main(
                [
                    "pvalue",
                    "--stat", str(workdir / "stat.json"),
                    "--sigma", str(workdir / "sigma.csv"),
                    "--input", str(workdir / "p.csv"),
                    "--kind", "p",
                    "--method", method,
                ]
            )
            assert code == 0
            outs.append(json.loads(capsys.readouterr().out)["pvalue"])
        assert outs[0] == pytest.approx(outs[1], abs=1e-6)

    @pytest.mark.parametrize("extra", [["--method", "gb"], ["--method", "q"], ["--method", "hyb"]])
    def test_reps_rejected_where_no_moments_are_simulated(self, workdir, capsys, extra):
        code = main(
            [
                "pvalue",
                "--stat", str(workdir / "stat.json"),
                "--sigma", str(workdir / "sigma.csv"),
                "--input", str(workdir / "p.csv"),
                "--kind", "p",
                "--reps", "5",
            ]
            + extra
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "invalid_input"
        assert "--reps" in payload["error"]["message"]
        load_schema_validator("error.schema.json").validate(payload)

    def test_q_one_sided_exits_2(self, workdir, capsys):
        stat = workdir / "one.json"
        stat.write_text(json.dumps({"degrees": [2, 2, 2], "side": "one"}))
        code = main(
            [
                "pvalue",
                "--stat", str(stat),
                "--sigma", str(workdir / "sigma.csv"),
                "--input", str(workdir / "p.csv"),
                "--kind", "p",
                "--method", "q",
            ]
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "invalid_input"
        assert "two-sided" in payload["error"]["message"]
        load_schema_validator("error.schema.json").validate(payload)


class TestExitCodes:
    def test_ggd_no_solution_exits_3(self, workdir, capsys, monkeypatch):
        # the solver's genuine failures are exercised at library level; here
        # the command contract is pinned by stubbing the fit
        from gfisher import methods as methods_mod
        from gfisher.surrogates import NoSolutionError

        def boom(m, variant):
            raise NoSolutionError("moment equations unsolved (residual 2.1e-01)", 0.21)

        monkeypatch.setattr(methods_mod.surrogates, "fit_ggd", boom)
        code = main(
            [
                "pvalue",
                "--stat", str(workdir / "stat.json"),
                "--sigma", str(workdir / "sigma.csv"),
                "--input", str(workdir / "p.csv"),
                "--kind", "p",
                "--method", "ggd234",
                "--reps", "500",
            ]
        )
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "no_solution"
        load_schema_validator("error.schema.json").validate(payload)

    def test_missing_file_exits_2(self, workdir, capsys):
        code = main(
            [
                "pvalue",
                "--stat", str(workdir / "nope.json"),
                "--sigma", str(workdir / "sigma.csv"),
                "--input", str(workdir / "p.csv"),
            ]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "invalid_input"

    def test_threads_env_fallback(self, workdir, monkeypatch):
        from gfisher.cli import build_parser

        monkeypatch.setenv("GFISHER_THREADS", "3")
        args = build_parser().parse_args(
            ["simulate-tie", "--stat", str(workdir / "stat.json"), "--sigma", "x"]
        )
        assert args.threads == 3

    @pytest.mark.parametrize("command", ["pvalue", "omnibus", "simulate-tie", "survival"])
    def test_default_methods_accept_one_sided_input(self, workdir, capsys, command):
        # hyb needs two-sided input with integer degrees; every default follows
        # the definition, so one-sided input and two-sided d = 3.5 both get mr
        for spec in ({"degrees": [2, 2, 2], "side": "one"}, {"degrees": [3.5, 3.5, 3.5], "side": "two"}):
            stat = workdir / "one.json"
            stat.write_text(json.dumps(spec))
            defs = workdir / "defs.json"
            defs.write_text(json.dumps([spec]))
            given = {
                "pvalue": ["--stat", str(stat), "--input", str(workdir / "p.csv"), "--kind", "p"],
                "omnibus": ["--defs", str(defs), "--input", str(workdir / "p.csv"), "--kind", "p"],
                "simulate-tie": ["--stat", str(stat), "--reps", "2000", "--alphas", "0.05"],
                "survival": ["--stat", str(stat), "--reps", "2000"],
            }[command]
            code = main([command, "--structure", "equal:0.5:III", *given])
            assert code == 0, spec
            out = capsys.readouterr().out
            if command == "survival":
                assert out.splitlines()[0] == "quantile,statistic,empirical,gb,mr"
            elif command == "omnibus":
                assert json.loads(out)["methods"] == ["mr"]
            else:
                assert json.loads(out)["manifest"]["method"] == "mr"

    def test_sigma_and_structure_exclusive(self, workdir, capsys):
        # a second spelling of sigma could only agree or be ignored: it fails instead
        code = main(
            [
                "pvalue",
                "--stat", str(workdir / "stat.json"),
                "--sigma", str(workdir / "sigma.csv"),
                "--structure", "equal:0.9:III",
                "--input", str(workdir / "p.csv"),
                "--kind", "p",
                "--method", "gb",
            ]
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "invalid_input"
        assert "--sigma" in payload["error"]["message"]
        load_schema_validator("error.schema.json").validate(payload)

    def test_manifest_keys_are_options(self):
        # a deleted option cannot leave a stale key in the manifest
        import argparse

        from gfisher.cli import _MANIFEST_KEYS, build_parser

        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for p in sub.choices.values() for a in p._actions}
        assert set(_MANIFEST_KEYS) <= dests
        # and every option of a JSON-reporting command but its output paths is echoed
        for command in ("pvalue", "omnibus", "simulate-tie", "glm-z"):
            options = {a.dest for a in sub.choices[command]._actions if not isinstance(a, argparse._HelpAction)}
            assert options - {"out", "out_sigma", "out_z"} <= set(_MANIFEST_KEYS), command

    @pytest.mark.parametrize("command", ["pvalue", "omnibus"])
    def test_unknown_definition_keys_exit_2(self, workdir, capsys, command):
        # a misspelt "side" would otherwise price a one-sided statistic two-sided
        spec = {"degrees": [2, 2, 2], "sides": "one"}
        path = workdir / "typo.json"
        path.write_text(json.dumps(spec if command == "pvalue" else [spec]))
        zin = workdir / "z.csv"
        np.savetxt(zin, [[0.5, 1.2, -0.3]], delimiter=",")
        flag = "--stat" if command == "pvalue" else "--defs"
        code = main([command, flag, str(path), "--structure", "equal:0.5:III", "--input", str(zin)])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert "unknown keys ['sides']" in payload["error"]["message"]
        load_schema_validator("error.schema.json").validate(payload)


class TestOmnibusCommand:
    def _defs(self, tmp_path, entries):
        path = tmp_path / "defs.json"
        path.write_text(json.dumps(entries))
        return path

    def test_single_def_equals_component(self, workdir, capsys):
        defs = self._defs(workdir, [{"degrees": [2, 2, 2], "side": "two"}])
        zin = workdir / "z.csv"
        np.savetxt(zin, [[1.0, -0.5, 2.0]], delimiter=",")
        code = main(
            [
                "omnibus",
                "--defs", str(defs),
                "--sigma", str(workdir / "sigma.csv"),
                "--input", str(zin),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        comp = payload["component_pvalues"][0]
        assert payload["minp"]["pvalue"] == pytest.approx(comp, abs=1e-6)
        assert payload["cc"]["pvalue"] == pytest.approx(comp, abs=1e-6)
        load_schema_validator("omnibus_result.schema.json").validate(payload)

    def test_golden_fixture_reproducible(self, workdir, capsys):
        defs = self._defs(
            workdir,
            [
                {"degrees": [1, 1, 1], "side": "two"},
                {"degrees": [2, 2, 2], "side": "two"},
                {"degrees": [3, 3, 3], "side": "two"},
            ],
        )
        zin = workdir / "z.csv"
        np.savetxt(zin, [[0.8, -1.7, 2.2]], delimiter=",")
        args = [
            "omnibus",
            "--defs", str(defs),
            "--sigma", str(workdir / "sigma.csv"),
            "--input", str(zin),
            "--seed", "11",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second  # bit-identical rerun

        # and the values match the library-level pipeline exactly
        from gfisher.omnibus import build_panel, omnibus_pvalues
        from gfisher.statistic import GFisherDef

        panel = build_panel(
            [GFisherDef(degrees=[float(d)] * 3, side="two") for d in (1, 2, 3)], np.eye(3)
        )
        ref = omnibus_pvalues(panel, np.array([0.8, -1.7, 2.2]), seed=11)
        payload = json.loads(first)
        np.testing.assert_array_equal(payload["component_pvalues"], ref["component_pvalues"])
        assert payload["minp"]["pvalue"] == ref["minp"].pvalue
        assert payload["cc"]["pvalue"] == ref["cc"].pvalue

    @pytest.mark.parametrize("method", [None, "gb"])
    def test_reps_rejected_without_moment_components(self, workdir, capsys, method):
        defs = self._defs(workdir, [{"degrees": [2, 2, 2]}, {"degrees": [1, 1, 1]}])
        zin = workdir / "z.csv"
        np.savetxt(zin, [[1.0, -0.5, 2.0]], delimiter=",")
        args = ["omnibus", "--defs", str(defs), "--sigma", str(workdir / "sigma.csv"), "--input", str(zin)]
        args += ["--reps", "5"] + (["--method", method] if method else [])
        assert main(args) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "invalid_input"
        assert "--reps" in payload["error"]["message"]

    def test_malformed_defs_exits_2(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        zin = workdir / "z.csv"
        np.savetxt(zin, [[0.0, 0.0, 0.0]], delimiter=",")
        code = main(
            [
                "omnibus",
                "--defs", str(bad),
                "--sigma", str(workdir / "sigma.csv"),
                "--input", str(zin),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("entries", [[], [[2, 2, 2]]])
    def test_defs_need_definition_objects(self, workdir, capsys, entries):
        defs = self._defs(workdir, entries)
        zin = workdir / "z.csv"
        np.savetxt(zin, [[0.0, 0.0, 0.0]], delimiter=",")
        code = main(["omnibus", "--defs", str(defs), "--structure", "equal:0.5:III", "--input", str(zin)])
        assert code == 2
        load_schema_validator("error.schema.json").validate(json.loads(capsys.readouterr().out))


class TestCovCommand:
    def test_identity_zero_offdiagonal(self, workdir, tmp_path):
        out = tmp_path / "cov.csv"
        code = main(
            [
                "cov",
                "--stat", str(workdir / "stat.json"),
                "--sigma", str(workdir / "sigma.csv"),
                "--out", str(out),
            ]
        )
        assert code == 0
        cov = np.loadtxt(out, delimiter=",")
        off = cov[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, 0.0, atol=1e-15)
        np.testing.assert_allclose(np.diag(cov), 4.0)

    def test_truncation_order_below_one_exits_2(self, workdir, capsys):
        code = main(
            [
                "cov",
                "--stat", str(workdir / "stat.json"),
                "--sigma", str(workdir / "sigma.csv"),
                "--kstar", "0",
            ]
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert "kstar" in payload["error"]["message"]

    def test_structure_round_trip(self, workdir, tmp_path):
        from gfisher.dependence import CorrMatrix, gen_structure

        out_sigma = tmp_path / "gen.csv"
        code = main(
            [
                "cov",
                "--stat", str(workdir / "stat.json"),
                "--structure", "equal:0.5:III",
                "--out", str(tmp_path / "cov.csv"),
                "--out-sigma", str(out_sigma),
            ]
        )
        assert code == 0
        back = CorrMatrix.from_csv(out_sigma)
        assert np.array_equal(back.values, gen_structure("equal", "III", 3, 0.5).values)


class TestSimulateCommand:
    def test_seeded_runs_identical(self, workdir, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        base = [
            "simulate-tie",
            "--stat", str(workdir / "stat.json"),
            "--structure", "equal:0.5:III",
            "--method", "hyb",
            "--reps", "20000",
            "--alphas", "0.05,0.01",
            "--seed", "21",
        ]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_omnibus_components_get_moments(self, workdir, capsys):
        # every component method that needs moments gets them, not only mr
        defs = workdir / "defs.json"
        defs.write_text(json.dumps([{"degrees": [2] * 4, "side": "two"}, {"degrees": [1] * 4, "side": "two"}]))
        code = main(
            [
                "simulate-tie",
                "--defs", str(defs),
                "--structure", "equal:0.5:III",
                "--method", "cc",
                "--component-method", "ggd123",
                "--reps", "20000",
                "--alphas", "0.05",
                "--seed", "3",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        load_schema_validator("tie_report.schema.json").validate(payload)

    def test_report_schema(self, workdir, capsys):
        code = main(
            [
                "simulate-tie",
                "--stat", str(workdir / "stat.json"),
                "--sigma", str(workdir / "sigma.csv"),
                "--method", "gb",
                "--reps", "20000",
                "--alphas", "0.05",
                "--seed", "2",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        load_schema_validator("tie_report.schema.json").validate(payload)
        assert payload["nreps"] == 20000

    def test_one_sided_stat_reads_side_from_definition(self, workdir, capsys):
        # sidedness comes from the file alone: one-sided counts (frozen)
        stat = workdir / "one.json"
        stat.write_text(json.dumps({"degrees": [2, 2, 2], "side": "one"}))
        code = main(
            [
                "simulate-tie",
                "--stat", str(stat),
                "--structure", "equal:0.5:III",
                "--method", "gb",
                "--reps", "20000",
                "--alphas", "0.05,0.01",
                "--seed", "5",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == [980, 218]
        assert payload["config"]["side"] == "one"

    @pytest.mark.parametrize("component", [[], ["--component-method", "mr"]])
    def test_one_sided_defs_read_side_from_definitions(self, workdir, capsys, component):
        # one-sided components default to mr, which simulates its moments
        defs = workdir / "defs.json"
        defs.write_text(json.dumps([{"degrees": [2] * 4, "side": "one"}, {"degrees": [1] * 4, "side": "one"}]))
        code = main(
            [
                "simulate-tie",
                "--defs", str(defs),
                "--structure", "equal:0.5:III",
                "--method", "cc",
                "--reps", "20000",
                "--alphas", "0.05,0.01",
                "--seed", "6",
            ]
            + component
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == [960, 189]
        assert payload["config"]["side"] == "one"
        assert payload["manifest"]["component_method"] == ["mr", "mr"]

    def test_structure_takes_n_from_definition(self, workdir, capsys):
        base = ["simulate-tie", "--stat", str(workdir / "stat.json"), "--structure", "equal:0.5:III"]
        base += ["--method", "gb", "--reps", "2000", "--alphas", "0.05", "--seed", "2"]
        assert main(base) == 0
        implied = json.loads(capsys.readouterr().out)
        assert implied["config"]["n"] == 3
        assert "n" not in implied["manifest"]
        # the definition is the only spelling of n: a second one could only agree or fail
        with pytest.raises(SystemExit) as exc:
            main(base + ["--n", "3"])
        assert exc.value.code == 2

    def test_component_method_needs_defs(self, workdir, capsys):
        # with --stat no component is fitted: the option would shape nothing yet echo in the manifest
        code = main(
            [
                "simulate-tie",
                "--stat", str(workdir / "stat.json"),
                "--structure", "equal:0.5:III",
                "--method", "gb",
                "--component-method", "ggd123",
                "--reps", "2000",
                "--alphas", "0.05",
            ]
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "invalid_input"
        assert payload["error"]["message"] == "--component-method applies only with --defs"

    @pytest.mark.parametrize("given", [["--stat", "stat.json", "--defs", "defs.json"], []])
    def test_needs_exactly_one_of_stat_and_defs(self, workdir, capsys, given):
        # with both, one of them would be silently ignored
        (workdir / "defs.json").write_text(json.dumps([{"degrees": [2, 2, 2]}]))
        paths = [str(workdir / a) if a.endswith(".json") else a for a in given]
        code = main(["simulate-tie", *paths, "--sigma", str(workdir / "sigma.csv"), "--method", "cc"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert "exactly one of --stat or --defs" in payload["error"]["message"]
        load_schema_validator("error.schema.json").validate(payload)


class TestSurvivalCommand:
    def test_csv_columns(self, workdir, tmp_path):
        out = tmp_path / "surv.csv"
        code = main(
            [
                "survival",
                "--stat", str(workdir / "stat.json"),
                "--sigma", str(workdir / "sigma.csv"),
                "--methods", "gb,hyb",
                "--reps", "20000",
                "--seed", "4",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "quantile,statistic,empirical,gb,hyb"


class TestGlmZCommand:
    @pytest.fixture()
    def design(self, tmp_path):
        rng = np.random.default_rng(17)
        n = 80
        table = np.column_stack(
            [
                rng.standard_normal(n),
                rng.standard_normal(n),
                rng.standard_normal(n),
                rng.standard_normal(n),
            ]
        )
        csv = tmp_path / "design.csv"
        np.savetxt(csv, table, delimiter=",", header="y,x1,x2,c1", comments="")
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps({"response": "y", "inquiry": ["x1", "x2"], "controls": ["c1"]})
        )
        return ["glm-z", "--data", str(csv), "--manifest", str(manifest)]

    def test_panel_output(self, design, tmp_path, capsys):
        out_sigma = tmp_path / "sig.csv"
        code = main(design + ["--estimator", "marginal_ls", "--out-sigma", str(out_sigma)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["z"]) == 2
        sig = np.loadtxt(out_sigma, delimiter=",")
        assert sig.shape == (2, 2)
        np.testing.assert_allclose(np.diag(sig), 1.0)

    def test_manifest_echoes_no_unread_options(self, design, capsys):
        # the command reads no sidedness, truncation order or seed
        assert main(design) == 0
        manifest = json.loads(capsys.readouterr().out)["manifest"]
        assert not {"side", "kstar", "seed"} & set(manifest)
        with pytest.raises(SystemExit):
            main(design + ["--seed", "1"])
