"""End-to-end checks of the command-line layer.

Each test drives ``main`` with an argv list, the way the installed
console script would, then inspects exit codes, printed report lines,
and written files. A shared synthetic scenario (built through the
``synth`` subcommand itself) backs the decode/eval/sweep/bench tests.
"""

import shlex
import shutil
from pathlib import Path

import pytest
import yaml

from fntfuse import cli
from fntfuse.arpa import load_arpa
from fntfuse.classlm import load_class_model, write_class_file
from fntfuse.cli import main
from fntfuse.core import Vocabulary
from fntfuse.decoder import DecoderConfig
from fntfuse.fusion import DENSE_METHODS
from fntfuse.simulate import read_scenario

SCENARIO_CFG = {
    "templates": [
        "call ⟨NAME⟩ now",
        "dial ⟨NAME⟩ on ⟨TYPE⟩ please",
        "check the weather",
    ],
    "classes": {
        "⟨NAME⟩": [["ada lin", 1.0], ["bo chen", 1.0], ["mira sol", 2.0], ["kit", 1.0]],
        "⟨TYPE⟩": [["mobile", 1.0], ["landline", 1.0]],
    },
    "n_train": 30,
    "n_adapt": 20,
    "n_test": 8,
    "tau": 0.0,
    "scale": 4.0,
    "blank_offset": 2.5,
    "seed": 3,
}


def parse_kv(line):
    """'EVAL a=1 b=x' -> ('EVAL', {'a': '1', 'b': 'x'})."""
    head, *pairs = line.split()
    return head, dict(p.split("=", 1) for p in pairs)


def write_yaml(path, mapping):
    path.write_text(yaml.safe_dump(mapping, allow_unicode=True), encoding="utf-8")


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("scn")
    cfg = d / "scenario.yaml"
    write_yaml(cfg, SCENARIO_CFG)
    assert main(["synth", "--config", str(cfg), "--out", str(d / "out")]) == 0
    return str(d / "out")


class TestTrainNgram:
    @pytest.fixture
    def corpus(self, tmp_path):
        (tmp_path / "vocab.txt").write_text("▁a\n▁b\n▁c\n", encoding="utf-8")
        (tmp_path / "text.txt").write_text(
            "▁a ▁b\n▁b ▁c ▁a\n▁a ▁b ▁c\n", encoding="utf-8"
        )
        return tmp_path

    def test_round_trip(self, corpus, capsys):
        out = corpus / "model.arpa"
        rc = main(
            [
                "train-ngram",
                "--text", str(corpus / "text.txt"),
                "--vocab", str(corpus / "vocab.txt"),
                "--order", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        head, kv = parse_kv(capsys.readouterr().out.strip())
        assert head == "TRAIN-NGRAM"
        assert kv["order"] == "2" and kv["sentences"] == "3"
        model = load_arpa(out, Vocabulary(["▁a", "▁b", "▁c"]))
        assert model.order == 2

    def test_missing_flag(self, corpus, capsys):
        rc = main(["train-ngram", "--vocab", str(corpus / "vocab.txt")])
        assert rc == 1
        assert "error: missing required option --text" in capsys.readouterr().err

    def test_unknown_token_names_line(self, corpus, capsys):
        (corpus / "bad.txt").write_text("▁a ▁b\n▁a ▁zz\n", encoding="utf-8")
        rc = main(
            [
                "train-ngram",
                "--text", str(corpus / "bad.txt"),
                "--vocab", str(corpus / "vocab.txt"),
                "--out", str(corpus / "m.arpa"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "bad.txt:2" in err

    def test_config_supplies_flags(self, corpus, capsys):
        cfg = corpus / "cfg.yaml"
        write_yaml(
            cfg,
            {
                "text": str(corpus / "text.txt"),
                "vocab": str(corpus / "vocab.txt"),
                "order": 2,
                "out": str(corpus / "m.arpa"),
            },
        )
        assert main(["train-ngram", "--config", str(cfg)]) == 0
        _, kv = parse_kv(capsys.readouterr().out.strip())
        assert kv["order"] == "2"

    def test_flag_overrides_config(self, corpus, capsys):
        cfg = corpus / "cfg.yaml"
        write_yaml(
            cfg,
            {
                "text": str(corpus / "text.txt"),
                "vocab": str(corpus / "vocab.txt"),
                "order": 2,
                "out": str(corpus / "m.arpa"),
            },
        )
        assert main(["train-ngram", "--config", str(cfg), "--order", "3"]) == 0
        _, kv = parse_kv(capsys.readouterr().out.strip())
        assert kv["order"] == "3"


class TestBuildClm:
    @pytest.fixture
    def inputs(self, tmp_path):
        (tmp_path / "vocab.txt").write_text("▁a\n▁b\n▁c\n", encoding="utf-8")
        write_class_file(
            {"⟨X⟩": [(("▁a", "▁b"), 1.0), (("▁c",), 2.0)]},
            tmp_path / "classes.tsv",
        )
        (tmp_path / "tagged.txt").write_text(
            "▁a ⟨X⟩ ▁b\n⟨X⟩ ▁c\n▁b ▁c\n", encoding="utf-8"
        )
        return tmp_path

    def test_round_trip(self, inputs, capsys):
        out = inputs / "clm"
        rc = main(
            [
                "build-clm",
                "--text", str(inputs / "tagged.txt"),
                "--classes", str(inputs / "classes.tsv"),
                "--vocab", str(inputs / "vocab.txt"),
                "--order", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        head, kv = parse_kv(capsys.readouterr().out.strip())
        assert head == "BUILD-CLM"
        assert kv["classes"] == "1"
        model = load_class_model(out, Vocabulary(["▁a", "▁b", "▁c"]))
        assert model.n_words == 3 and len(model.trees) == 1

    def test_undefined_tag_fails(self, inputs, capsys):
        (inputs / "tagged.txt").write_text("▁a ⟨Y⟩\n", encoding="utf-8")
        rc = main(
            [
                "build-clm",
                "--text", str(inputs / "tagged.txt"),
                "--classes", str(inputs / "classes.tsv"),
                "--vocab", str(inputs / "vocab.txt"),
                "--out", str(inputs / "clm"),
            ]
        )
        assert rc == 1
        assert "⟨Y⟩" in capsys.readouterr().err


class TestSynth:
    def test_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "s.yaml"
        write_yaml(cfg, SCENARIO_CFG)
        out = tmp_path / "scn"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        head, kv = parse_kv(capsys.readouterr().out.strip())
        assert head == "SYNTH" and kv["tests"] == "8"
        for name in ("vocab.txt", "train.txt", "adapt.txt", "clm.txt", "classes.tsv", "refs.tsv"):
            assert (out / name).exists()
        scn = read_scenario(out)
        assert len(scn.tests) == 8 and len(scn.class_entries) == 2

    def test_missing_templates_fails(self, tmp_path, capsys):
        cfg = tmp_path / "s.yaml"
        write_yaml(cfg, {"classes": SCENARIO_CFG["classes"]})
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "scn")])
        assert rc == 1
        assert "templates" in capsys.readouterr().err

    def test_seed_flag(self, tmp_path):
        cfg = tmp_path / "s.yaml"
        write_yaml(cfg, SCENARIO_CFG)
        for seed, name in ((3, "a"), (3, "b"), (4, "c")):
            rc = main(
                ["synth", "--config", str(cfg), "--seed", str(seed), "--out", str(tmp_path / name)]
            )
            assert rc == 0
        same = (tmp_path / "a" / "refs.tsv").read_bytes()
        assert same == (tmp_path / "b" / "refs.tsv").read_bytes()
        assert same != (tmp_path / "c" / "refs.tsv").read_bytes()


class TestDecode:
    def test_stdout_rows(self, scenario_dir, capsys):
        rc = main(["decode", "--scenario", scenario_dir, "--utts", "3"])
        assert rc == 0
        captured = capsys.readouterr()
        rows = captured.out.strip().splitlines()
        assert len(rows) == 3
        for row in rows:
            utt_id, text, score = row.split("\t")
            assert utt_id.startswith("utt-")
            float(score)
        assert "DECODE method=none utts=3" in captured.err

    def test_out_file(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "hyps.tsv"
        rc = main(
            [
                "decode", "--scenario", scenario_dir,
                "--method", "li", "--alpha", "0.5",
                "--utts", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""  # rows went to the file
        assert len(out.read_text(encoding="utf-8").strip().splitlines()) == 3

    def test_three_way_and_clm(self, scenario_dir, capsys):
        for argv in (
            ["--method", "li", "--alpha", "0.1", "--alpha2", "0.5"],
            ["--method", "clm", "--alpha", "0.5"],
        ):
            rc = main(["decode", "--scenario", scenario_dir, "--utts", "2"] + argv)
            assert rc == 0
            assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_invalid_method_exits_nonzero(self, scenario_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decode", "--scenario", scenario_dir, "--method", "bogus"])
        assert exc.value.code != 0
        assert "bogus" in capsys.readouterr().err

    def test_bad_alpha_diagnostic(self, scenario_dir, capsys):
        rc = main(
            ["decode", "--scenario", scenario_dir, "--method", "li", "--alpha", "1.5"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_config_precedence(self, scenario_dir, tmp_path, capsys):
        cfg = tmp_path / "d.yaml"
        write_yaml(cfg, {"scenario": scenario_dir, "utts": 2})
        assert main(["decode", "--config", str(cfg)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2
        assert main(["decode", "--config", str(cfg), "--utts", "1"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["decode", "eval", "sweep"])
def test_jobs_flag_is_a_usage_error(command, scenario_dir, capsys):
    # utterances decode one after another; there is no worker count to set
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", scenario_dir, "--utts", "1", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decode", "eval", "sweep"])
def test_scenario_without_test_utterances_exits_1(command, scenario_dir, tmp_path, capsys):
    empty = tmp_path / "scn"
    shutil.copytree(scenario_dir, empty)
    (empty / "refs.tsv").write_text("", encoding="utf-8")
    assert main([command, "--scenario", str(empty)]) == 1
    assert "error: refs.tsv: no test utterances" in capsys.readouterr().err


def readme_commands():
    """The ``fntfuse ...`` lines of the README's "Command line" block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("fntfuse ")]


def test_readme_commands_parse():
    parser, subparsers = cli.build_parser()
    commands = readme_commands()
    assert {shlex.split(c)[1] for c in commands} == set(subparsers)  # one example each
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])  # a usage error exits


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--scenario", "scn"],
        ["decode", "--nbest", "2"],
        ["sweep", "--clm", "x"],
    ],
    ids=["bench-scenario", "decode-nbest", "sweep-clm"],
)
def test_flag_that_changes_no_output_is_a_usage_error(argv, capsys):
    # bench times rank queries only, decode prints the top hypothesis
    # only, and sweep never loads a class model
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_nbest_config_key_is_a_usage_error(scenario_dir, tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    write_yaml(cfg, {"scenario": scenario_dir, "utts": 1, "nbest": 2})
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "unknown config key 'nbest'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decode", "eval", "sweep", "bench"])
def test_unknown_config_key_is_a_usage_error(command, scenario_dir, tmp_path, capsys):
    # a misspelled beam used to decode at the default beam and exit 0
    cfg = tmp_path / "c.yaml"
    write_yaml(cfg, {"scenario": scenario_dir, "utts": 1, "beem": 4})
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg)])
    assert exc.value.code == 2
    assert "unknown config key 'beem'" in capsys.readouterr().err


def test_flag_over_config_over_library_default(scenario_dir, tmp_path, monkeypatch):
    configs = []
    decode = cli.beam_search

    def spy(encoder, scorer, config, *models):
        configs.append(config)
        return decode(encoder, scorer, config, *models)

    monkeypatch.setattr(cli, "beam_search", spy)
    cfg = tmp_path / "c.yaml"
    # a config string goes through the flag's type, as on the command line
    write_yaml(cfg, {"scenario": scenario_dir, "utts": "1", "beam": "3", "max_emit": 2})
    for argv in (
        ["--config", str(cfg)],
        ["--config", str(cfg), "--beam", "5"],
        ["--scenario", scenario_dir, "--utts", "1"],
    ):
        assert main(["decode"] + argv) == 0
    default = DecoderConfig()
    assert configs[-1] == default
    assert [(c.beam, c.max_emit) for c in configs] == [
        (3, 2), (5, 2), (default.beam, default.max_emit)
    ]


@pytest.mark.parametrize("beam", ["abc", 2.5, True])
def test_bad_config_value_is_a_usage_error(beam, scenario_dir, tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    write_yaml(cfg, {"scenario": scenario_dir, "utts": 1, "beam": beam})
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"argument --beam: invalid int value: '{beam}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,flag", [("method", "--method"), ("exit_rule", "--exit-rule")], ids=["method", "exit_rule"]
)
def test_config_value_outside_choices_is_a_usage_error(key, flag, scenario_dir, tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    write_yaml(cfg, {"scenario": scenario_dir, "utts": 1, key: "bogus"})
    for argv in (["--config", str(cfg)], ["--scenario", scenario_dir, flag, "bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(["eval"] + argv)
        assert exc.value.code == 2
        assert f"argument {flag}: invalid choice: 'bogus'" in capsys.readouterr().err


def test_config_sets_a_switch(scenario_dir, tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    write_yaml(
        cfg,
        {"scenario": scenario_dir, "utts": 1, "method": "li", "alpha": 0.5, "with_baseline": True},
    )
    assert main(["eval", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("WERR vs=none")


def test_synth_config_takes_spec_keys_and_out(tmp_path, capsys):
    cfg = tmp_path / "s.yaml"
    write_yaml(cfg, {**SCENARIO_CFG, "out": str(tmp_path / "scn")})
    assert main(["synth", "--config", str(cfg)]) == 0
    assert (tmp_path / "scn").is_dir()
    write_yaml(cfg, {**SCENARIO_CFG, "n_tests": 4})
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "scn2")])
    assert exc.value.code == 2
    assert "unknown config key 'n_tests'" in capsys.readouterr().err


class TestEval:
    def test_baseline_and_werr(self, scenario_dir, capsys):
        rc = main(
            [
                "eval", "--scenario", scenario_dir,
                "--method", "li", "--alpha", "0.5", "--with-baseline",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        _, base = parse_kv(lines[0])
        _, fused = parse_kv(lines[1])
        _, werr = parse_kv(lines[2])
        assert base["name"] == "none" and fused["name"] == "li"
        base_wer, li_wer = float(base["wer"]), float(fused["wer"])
        assert base_wer > 0.0
        assert li_wer < base_wer
        assert float(werr["value"]) == pytest.approx((base_wer - li_wer) / base_wer)

    @pytest.mark.parametrize("method", ["none", "cli", "li"])
    def test_rank_rprime_needs_a_class_model(self, scenario_dir, capsys, method):
        # the gate used to be ignored: the EVAL line matched the run without it
        argv = ["eval", "--scenario", scenario_dir, "--utts", "1", "--method", method]
        assert main(argv + ["--alpha", "0.5", "--rank-rprime", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rank_rprime" in err
        # so was require-cat1: without a class state every hypothesis can exit
        assert main(argv + ["--alpha", "0.5", "--exit-rule", "require-cat1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "require-cat1 needs class-model fusion" in err

    def test_baseline_drops_rank_rprime(self, scenario_dir, capsys):
        argv = ["eval", "--scenario", scenario_dir, "--utts", "3"]
        clm = [
            "--method", "clm", "--alpha", "0.9", "--rank-rprime", "2",
            "--exit-rule", "require-cat1", "--with-baseline",
        ]
        assert main(argv + clm) == 0
        base, fused, _ = capsys.readouterr().out.strip().splitlines()
        assert main(argv) == 0
        plain = capsys.readouterr().out.strip()
        assert base.startswith("EVAL ") and plain.startswith("EVAL ")
        drop = lambda line: {k: v for k, v in parse_kv(line)[1].items() if k != "time_ms"}
        assert drop(base) == drop(plain)  # the none decode has no r' gate or CAT1 rule
        assert parse_kv(fused)[1]["name"] == "clm"

    def test_single_line_without_baseline(self, scenario_dir, capsys):
        rc = main(["eval", "--scenario", scenario_dir, "--utts", "4"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        head, kv = parse_kv(lines[0])
        assert head == "EVAL" and kv["name"] == "none" and kv["utts"] == "4"

    def test_default_beam_is_the_library_default(self, scenario_dir, capsys):
        lines = []
        for extra in ([], ["--beam", str(DecoderConfig.beam)]):
            argv = ["eval", "--scenario", scenario_dir, "--method", "cli", "--alpha", "0.5"]
            assert main(argv + extra) == 0
            _, kv = parse_kv(capsys.readouterr().out.strip())
            del kv["time_ms"]
            lines.append(kv)
        assert lines[0] == lines[1]

    @pytest.mark.parametrize("first", ["cli", "lli"])
    def test_three_way_takes_li_first(self, scenario_dir, capsys, first):
        # these used to decode li+clm under the name cli+clm / lli+clm
        argv = ["--method", first, "--alpha", "0.5", "--alpha2", "0.9"]
        assert main(["eval", "--scenario", scenario_dir, "--utts", "1"] + argv) == 1
        assert "first stage" in capsys.readouterr().err

    def test_three_way_name(self, scenario_dir, capsys):
        rc = main(
            [
                "eval", "--scenario", scenario_dir, "--utts", "2",
                "--method", "li", "--alpha", "0.1", "--alpha2", "0.5",
            ]
        )
        assert rc == 0
        _, kv = parse_kv(capsys.readouterr().out.strip().splitlines()[0])
        assert kv["name"] == "li+clm"

    def test_verbose_per_utt(self, scenario_dir, capsys):
        rc = main(["eval", "--scenario", scenario_dir, "--utts", "3", "--verbose"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        utt_lines = [l for l in lines if l.startswith("UTT ")]
        assert len(utt_lines) == 3
        _, kv = parse_kv(utt_lines[0])
        assert set(kv) == {"id", "sub", "ins", "del", "words"}


@pytest.mark.parametrize("flag, method", [("--predictor", "none"), ("--lm", "li"), ("--clm", "clm")])
def test_arpa_fault_names_its_file(flag, method, scenario_dir, tmp_path, capsys):
    # the fault used to print as "error: line 5: ..." without the file
    path = tmp_path / "ngram.arpa"
    path.write_text(
        "\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\t▁zzz\n\n\\end\\\n", encoding="utf-8"
    )
    (tmp_path / "classes.tsv").write_bytes((Path(scenario_dir) / "classes.tsv").read_bytes())
    given = tmp_path if flag == "--clm" else path
    argv = ["eval", "--scenario", scenario_dir, "--utts", "1", "--method", method, flag, str(given)]
    if method != "none":
        argv += ["--alpha", "0.5"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: line 5: token not in vocabulary: '▁zzz'\n"


@pytest.mark.parametrize("flag, method", [("--predictor", "none"), ("--lm", "li")])
def test_model_with_eos_mass_names_its_file(flag, method, scenario_dir, tmp_path, capsys):
    # its rows used to sum below 1 over the vocabulary, and the joint
    # softmax handed the missing mass to blank
    path = tmp_path / "eos.arpa"
    scn = Path(scenario_dir)
    train = ["train-ngram", "--text", str(scn / "train.txt"), "--vocab", str(scn / "vocab.txt")]
    assert main(train + ["--with-eos", "--out", str(path)]) == 0
    argv = ["eval", "--scenario", scenario_dir, "--utts", "1", "--method", method, flag, str(path)]
    if method != "none":
        argv += ["--alpha", "0.5"]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: </s> has nonzero probability")
    assert "train the LM without </s>" in err


@pytest.mark.parametrize("route", ["--classes", "--clm", "--scenario"])
def test_class_file_fault_names_its_file(route, scenario_dir, tmp_path, capsys):
    # the fault used to print as "error: line 1: ..." without the file
    scn = tmp_path / "scn"
    shutil.copytree(scenario_dir, scn)
    path = scn / "classes.tsv"
    path.write_text("⟨NAME⟩\n", encoding="utf-8")
    if route == "--classes":
        argv = [
            "build-clm", "--text", str(scn / "clm.txt"), "--classes", str(path),
            "--vocab", str(scn / "vocab.txt"), "--out", str(tmp_path / "clm"),
        ]
    else:
        given = scenario_dir if route == "--clm" else str(scn)
        argv = ["eval", "--scenario", given, "--utts", "1", "--method", "clm", "--alpha", "0.5"]
        if route == "--clm":
            argv += ["--clm", str(scn)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: line 1: expected 2 or 3 TSV fields\n"


class TestSweep:
    def test_report_lines(self, scenario_dir, capsys):
        rc = main(
            [
                "sweep", "--scenario", scenario_dir,
                "--methods", "li", "--grid", "0.0,0.5",
                "--beam", "4", "--utts", "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        heads = [line.split()[0] for line in out.strip().splitlines() if line]
        assert "EVAL" in heads  # baseline
        assert heads.count("SWEEP") == 2
        assert "SWEEP-STAR" in heads and "SWEEP-FIXED" in heads
        star = next(l for l in out.splitlines() if l.startswith("SWEEP-STAR"))
        _, kv = parse_kv(star)
        assert kv["method"] == "li" and kv["alpha"] in ("0", "0.5")

    def test_no_flags_sweeps_every_dense_method(self, scenario_dir, capsys):
        # the dense external LM is loaded without a fusion flag naming it
        assert main(["sweep", "--scenario", scenario_dir, "--utts", "2"]) == 0
        fixed = [
            parse_kv(l)[1]["method"]
            for l in capsys.readouterr().out.splitlines()
            if l.startswith("SWEEP-FIXED")
        ]
        assert tuple(fixed) == DENSE_METHODS


@pytest.mark.parametrize("command", ["decode", "eval", "sweep"])
def test_utts_below_one_fails_before_reading(command, scenario_dir, monkeypatch, capsys):
    # eval --utts -1 used to score all but the last utterance, and
    # --utts 0 ended in a ZeroDivisionError traceback
    def unread(path):
        raise AssertionError("the scenario was read")

    monkeypatch.setattr(cli, "read_scenario", unread)
    for value in ("0", "-1"):
        assert main([command, "--scenario", scenario_dir, "--utts", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --utts must be >= 1, got {value}" in captured.err


BAD_SWEEP_LISTS = {
    "unknown-method": ("methods", ["li", "bogus"], "sweep method must be one of sf,li,lli,cli, got 'bogus'"),
    "class-model": ("methods", ["clm"], "sweep method must be one of sf,li,lli,cli, got 'clm'"),
    "weight-above-one": ("grid", [0.5, 1.5], "sweep weight must be in [0, 1], got 1.5"),
    "negative-weight": ("grid", [-0.1], "sweep weight must be in [0, 1], got -0.1"),
}


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("case", list(BAD_SWEEP_LISTS))
def test_bad_sweep_list_fails_before_reading(case, route, scenario_dir, tmp_path, monkeypatch, capsys):
    # a bad method or weight used to fail only after the models were
    # trained, or after the baseline decoded
    key, values, message = BAD_SWEEP_LISTS[case]
    monkeypatch.setattr(cli, "read_scenario", lambda path: pytest.fail("scenario read"))
    argv = ["sweep", "--scenario", scenario_dir]
    if route == "flag":
        argv += [f"--{key}", ",".join(map(str, values))]
    else:  # a YAML list, not the flag's comma-separated string
        write_yaml(tmp_path / "c.yaml", {key: values})
        argv += ["--config", str(tmp_path / "c.yaml")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("route", ["flag", "config"])
def test_unparsable_sweep_weight_is_a_usage_error(route, scenario_dir, tmp_path, monkeypatch, capsys):
    # a YAML list goes through the flag's type, as the flag's string does
    monkeypatch.setattr(cli, "read_scenario", lambda path: pytest.fail("scenario read"))
    argv = ["sweep", "--scenario", scenario_dir]
    if route == "flag":
        argv += ["--grid", "0.5,x"]
    else:
        write_yaml(tmp_path / "c.yaml", {"grid": [0.5, "x"]})
        argv += ["--config", str(tmp_path / "c.yaml")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --grid: invalid _float_list value: '0.5,x'" in capsys.readouterr().err


def test_config_lists_sweep_like_flags(scenario_dir, tmp_path, capsys):
    argv = ["sweep", "--scenario", scenario_dir, "--beam", "4", "--utts", "1"]

    def sweep_lines():  # the SWEEP lines carry no timings
        return [l for l in capsys.readouterr().out.splitlines() if l.startswith("SWEEP")]

    assert main(argv + ["--methods", "li,cli", "--grid", "0.5"]) == 0
    flags = sweep_lines()
    assert len(flags) == 2 * 3  # per method: one cell, a STAR and a FIXED line
    write_yaml(tmp_path / "c.yaml", {"methods": ["li", "cli"], "grid": [0.5]})
    assert main(argv + ["--config", str(tmp_path / "c.yaml")]) == 0
    assert sweep_lines() == flags


def test_floor_out_of_range_fails_before_reading(scenario_dir, monkeypatch, capsys):
    # checked before anything is read; a fault in building the predictor
    # from a --predictor file names the file, this one names the flag
    monkeypatch.setattr(cli, "read_scenario", lambda path: pytest.fail("scenario read"))
    argv = ["eval", "--scenario", scenario_dir, "--predictor", "p.arpa", "--floor", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --floor must be in [0, 1), got 1.0\n"


class TestBench:
    def test_latency_points(self, capsys):
        rc = main(["bench", "--sizes", "800,2000", "--queries", "40", "--rank-r", "20"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        bench = [l for l in lines if l.startswith("BENCH ")]
        assert len(bench) == 2
        for line in bench:
            _, kv = parse_kv(line)
            assert float(kv["us_per_query"]) > 0.0
            assert kv["r"] == "20"
        builds = [parse_kv(l)[1] for l in lines if l.startswith("BENCH-BUILD ")]
        assert [b["label"] for b in builds] == ["n800", "n2000"]
        for b, line in zip(builds, bench):
            assert b["ngrams"] == parse_kv(line)[1]["ngrams"]
            assert float(b["build_s"]) >= 0.0
        ratio = next(l for l in lines if l.startswith("BENCH-RATIO"))
        _, kv = parse_kv(ratio)
        assert float(kv["large_over_small"]) > 0.0

    @pytest.mark.parametrize("flag", ["--rank-r", "--queries"])
    def test_count_below_one_fails_before_building(self, flag, capsys):
        # --queries 0 used to end in a ZeroDivisionError traceback
        assert main(["bench", "--sizes", "800", flag, "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag} must be >= 1, got 0" in captured.err
