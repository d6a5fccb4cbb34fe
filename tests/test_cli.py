import json
import shutil
import urllib.error
import urllib.request
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from loramix import cli
from loramix.evaluation import EvalConfig
from loramix.model import AdapterSpec, ToyCausalLm, ToyModelConfig
from loramix.retrieval import RetrievalConfig
from loramix.training import (TrainConfig, _read_arrays, _write_arrays,
                              load_checkpoint, save_checkpoint)


DOCS = {
    "optics/prisms.txt": "The prism bends light. Glass refracts every beam.",
    "optics/lenses.txt": "The lens focuses beams. Curved glass gathers rays.",
    "hydraulics/pumps.txt": "The pump moves water. Pressure drives the flow.",
    "hydraulics/valves.txt": "The valve stops flow. A quarter turn seals it.",
}


def make_workspace(tmp_path: Path, train_epochs: int = 1) -> Path:
    corpus = tmp_path / "corpus"
    for rel, body in DOCS.items():
        target = corpus / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(body)
    config = {
        "seed": 0,
        "paths": {
            "corpus": str(corpus),
            "dataset": str(tmp_path / "dataset"),
            "index": str(tmp_path / "artifacts" / "index.jsonl"),
            "checkpoints": str(tmp_path / "checkpoints"),
            "reports": str(tmp_path / "reports"),
        },
        "retrieval": {"theta": 0.2, "target_size": 200, "overlap": 0},
        "model": {"vocab_size": 256, "d_model": 16, "n_layers": 1,
                  "n_heads": 2, "d_ff": 32, "max_seq_len": 128},
        "adapter": {"n_experts": 2, "top_k": 1, "rank": 2, "alpha": 4.0},
        "train": {"lr": 1e-3, "batch_size": 8, "epochs": train_epochs},
        "eval": {"max_new_tokens": 8},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2))
    return cfg_path


def run(cfg_path, *argv):
    return cli.main(["--config", str(cfg_path), "--stub-clients", *argv])


def set_key(cfg_path: Path, dotted: str, value, out_path: Path) -> Path:
    """Copy of the config at cfg_path with the dotted key set to value."""
    data = json.loads(cfg_path.read_text())
    *sections, key = dotted.split(".")
    target = data
    for section in sections:
        target = target.setdefault(section, {})
    target[key] = value
    out_path.write_text(json.dumps(data))
    return out_path


# Config typos and mistyped values, each with a command that would
# otherwise run on a trained workspace: (dotted key, value, argv).
REJECTED_KEYS = [
    ("retrieval.thetaa", 0.2, ["curate"]),
    ("retreival", {"theta": 0.2}, ["curate"]),
    ("paths.reprots", "reports", ["curate"]),
    ("train.epochs", 1.9, ["train"]),
    ("train.lr", "1e-3", ["train"]),
    ("model.d_model", "16", ["train"]),
    ("model.n_layers", True, ["train"]),
    ("eval.use_stored_retrieval", "false", ["eval", "--mode", "open"]),
    ("eval.max_new_tokns", 8, ["eval", "--mode", "closed"]),
    ("adapter.ranks", 2, ["train"]),
    ("train.n_experts", 2, ["train"]),
    ("gradcheck", {}, ["gradcheck"]),
]
# Non-finite numbers, which Python's json reads as floats: (dotted key,
# value, argv), each case's id carrying its value.
NON_FINITE_KEYS = [
    ("train.lr", float("nan"), ["train"]),
    ("train.lr", float("inf"), ["train"]),
    ("adapter.alpha", float("nan"), ["train"]),
]

# Client entries the HTTP clients could not take as they stand, each
# refused with stub clients too: (dotted key, value, argv, name in error).
ENDPOINT = "http://localhost:9/v1/chat"
CLIENT_TYPOS = [
    ("clients.generator", {"endpoint": ENDPOINT, "modle": "x"}, ["curate"],
     "clients.generator.modle"),
    ("clients.judges", [{"endpoint": ENDPOINT, "timout": 5}],
     ["eval", "--mode", "closed"], "clients.judges[0].timout"),
    ("clients.judges", [{"endpoint": ENDPOINT}, {"model": "x"}],
     ["eval", "--mode", "closed"], "clients.judges[1]"),
    ("clients.generator", {"endpoint": ENDPOINT, "retries": 0},
     ["eval", "--mode", "closed"], "clients.generator.retries"),
    ("clients.generator", "http://localhost:9", ["curate"],
     "clients.generator"),
    ("clients.judges", [{"endpoint": ENDPOINT, "timeout": "5"}],
     ["eval", "--mode", "closed"], "clients.judges[0].timeout"),
    ("clients.generator", {"endpoint": ENDPOINT, "timeout": True},
     ["curate"], "clients.generator.timeout"),
]


@pytest.fixture
def unreachable(monkeypatch):
    """Every HTTP request fails as a refused connection; no socket opens."""
    def refuse(*args, **kwargs):
        raise urllib.error.URLError("connection refused")
    monkeypatch.setattr(urllib.request, "urlopen", refuse)


class TestCurateCommand:
    def test_unreachable_generator_exits_two(self, tmp_path, unreachable,
                                             capsys):
        cfg = set_key(make_workspace(tmp_path), "clients.generator",
                      {"endpoint": ENDPOINT}, tmp_path / "cfg.json")
        assert cli.main(["--config", str(cfg), "curate"]) == 2
        assert capsys.readouterr().err.startswith(f"error: POST {ENDPOINT}")

    def test_summary_matches_files(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        assert run(cfg, "curate") == 0
        out = capsys.readouterr().out
        train_lines = (tmp_path / "dataset" / "train.jsonl") \
            .read_text().strip().splitlines()
        test_lines = (tmp_path / "dataset" / "test.jsonl") \
            .read_text().strip().splitlines()
        n = len(train_lines) + len(test_lines)
        assert f"records: {n}" in out
        assert "chunks:" in out
        assert "optics" in out and "hydraulics" in out

    def test_missing_corpus_exits_two(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        data = json.loads(cfg.read_text())
        data["paths"]["corpus"] = str(tmp_path / "nowhere")
        cfg.write_text(json.dumps(data))
        assert run(cfg, "curate") == 2
        assert "error:" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = make_workspace(tmp_path)
        run(cfg, "curate")
        first = {p.name: p.read_bytes()
                 for p in (tmp_path / "dataset").iterdir()}
        run(cfg, "curate")
        second = {p.name: p.read_bytes()
                  for p in (tmp_path / "dataset").iterdir()}
        assert first == second

    def test_two_workspaces_agree(self, tmp_path):
        a = make_workspace(tmp_path / "a")
        b = make_workspace(tmp_path / "b")
        run(a, "curate")
        run(b, "curate")
        for name in ("train.jsonl", "test.jsonl"):
            assert (tmp_path / "a" / "dataset" / name).read_bytes() == \
                (tmp_path / "b" / "dataset" / name).read_bytes()


class TestIndexCommand:
    def test_unreachable_embedder_exits_two(self, tmp_path, unreachable,
                                            capsys):
        cfg = set_key(make_workspace(tmp_path), "clients.embedder",
                      {"kind": "http", "endpoint": ENDPOINT},
                      tmp_path / "cfg.json")
        assert cli.main(["--config", str(cfg), "index"]) == 2
        assert capsys.readouterr().err.startswith(f"error: POST {ENDPOINT}")

    def test_writes_index(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        assert run(cfg, "index") == 0
        assert (tmp_path / "artifacts" / "index.jsonl").is_file()
        assert "chunk(s)" in capsys.readouterr().out


class TestTrainCommand:
    def test_zero_epochs_checkpoint_is_initialization(self, tmp_path):
        cfg = make_workspace(tmp_path, train_epochs=0)
        run(cfg, "curate")
        assert run(cfg, "train") == 0
        loaded = load_checkpoint(tmp_path / "checkpoints")
        fresh = ToyCausalLm(
            ToyModelConfig(vocab_size=256, d_model=16, n_layers=1, n_heads=2,
                           d_ff=32, max_seq_len=128, seed=0),
            AdapterSpec(n_experts=2, top_k=1, rank=2, alpha=4.0))
        for name, arr in fresh.trainable_params().items():
            assert np.array_equal(arr, loaded.trainable_params()[name]), name

    def test_writes_loss_csv(self, tmp_path):
        cfg = make_workspace(tmp_path)
        run(cfg, "curate")
        assert run(cfg, "train") == 0
        csv = (tmp_path / "checkpoints" / "loss.csv").read_text()
        assert csv.startswith("step,loss")

    def test_missing_dataset_exits_two(self, tmp_path):
        cfg = make_workspace(tmp_path)
        assert run(cfg, "train") == 2

    def test_non_finite_loss_exits_two(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path, train_epochs=4)
        run(cfg, "curate")
        cfg = set_key(cfg, "train.lr", 1e300, tmp_path / "blowup.json")
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(cfg, "train") == 2
        assert "non-finite loss" in capsys.readouterr().err


class TestEvalCommand:
    @pytest.fixture
    def trained(self, tmp_path):
        cfg = make_workspace(tmp_path)
        run(cfg, "curate")
        run(cfg, "train")
        return cfg, tmp_path

    def test_closed_report_has_ra_only(self, trained, capsys):
        cfg, root = trained
        assert run(cfg, "eval", "--mode", "closed") == 0
        report = json.loads(
            (root / "reports" / "closed_report.json").read_text())
        assert report["ra_closed"] is not None
        assert report["faith"] is None
        assert report["filter"] is None
        assert report["rr"] is None
        assert "RA-closed" in capsys.readouterr().out

    def test_open_report_written(self, trained):
        cfg, root = trained
        assert run(cfg, "eval", "--mode", "open") == 0
        report = json.loads(
            (root / "reports" / "open_report.json").read_text())
        assert report["ra_open"] is not None
        assert report["record_count"] > 0
        assert (root / "reports" / "open_report.txt").is_file()

    def test_cross_report_written(self, trained):
        cfg, root = trained
        assert run(cfg, "eval", "--mode", "cross") == 0
        report = json.loads(
            (root / "reports" / "cross_report.json").read_text())
        assert report["qr"] is not None
        assert report["fl"] is not None

    def test_unknown_mode_exits_two_with_usage(self, trained, capsys):
        cfg, _ = trained
        with pytest.raises(SystemExit) as exc:
            run(cfg, "eval", "--mode", "sideways")
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_dataset_row_with_unknown_key_exits_two(self, trained, capsys):
        cfg, root = trained
        path = root / "dataset" / "test.jsonl"
        rows = [json.loads(ln) for ln in path.read_text().splitlines()]
        rows[0]["extra"] = 1
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert run(cfg, "eval", "--mode", "closed") == 2
        assert "unknown ['extra']" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("retrieved", "pumps:0000"), ("retrieved", [7]),
        ("closed_response", 7), ("q", None),
    ])
    def test_dataset_row_with_mistyped_value_exits_two(self, trained, capsys,
                                                       key, value):
        cfg, root = trained
        path = root / "dataset" / "test.jsonl"
        rows = [json.loads(ln) for ln in path.read_text().splitlines()]
        rows[0][key] = value
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert run(cfg, "eval", "--mode", "closed") == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("text", 5), ("lead", "3"), ("source_doc", None), ("id", 7),
        ("extra", 1), ("lead", -5),
        pytest.param("lead", lambda row: len(row["text"]) + 1,
                     id="lead-past-text"),
    ])
    def test_index_row_with_bad_key_exits_two(self, trained, capsys, key,
                                              value):
        """value, or value(row) when callable, replaces the first row's key."""
        cfg, root = trained
        path = root / "artifacts" / "index.jsonl"
        rows = [json.loads(ln) for ln in path.read_text().splitlines()]
        rows[0][key] = value(rows[0]) if callable(value) else value
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert run(cfg, "eval", "--mode", "open") == 2
        assert repr(key) in capsys.readouterr().err

    def test_index_row_with_null_embedding_exits_two(self, trained, capsys):
        # numpy reads a null element as NaN, which no unit-norm check passes
        cfg, root = trained
        path = root / "artifacts" / "index.jsonl"
        rows = [json.loads(ln) for ln in path.read_text().splitlines()]
        rows[0]["embedding"][0] = None
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert run(cfg, "eval", "--mode", "open") == 2
        assert "not unit-norm" in capsys.readouterr().err

    def test_stored_retrieval_of_missing_chunk_exits_two(self, trained,
                                                         tmp_path, capsys):
        cfg, root = trained
        cfg = set_key(cfg, "eval.use_stored_retrieval", True,
                      tmp_path / "stored.json")
        path = root / "dataset" / "test.jsonl"
        rows = [json.loads(ln) for ln in path.read_text().splitlines()]
        rows[0]["retrieved"] = ["gone:0000"]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert run(cfg, "eval", "--mode", "open") == 2
        assert "'gone:0000'" in capsys.readouterr().err

    def test_eval_before_train_exits_two(self, tmp_path):
        cfg = make_workspace(tmp_path)
        run(cfg, "curate")
        assert run(cfg, "eval", "--mode", "closed") == 2

    def test_rerun_reports_byte_identical(self, trained):
        cfg, root = trained
        run(cfg, "eval", "--mode", "closed")
        first = (root / "reports" / "closed_report.json").read_bytes()
        run(cfg, "eval", "--mode", "closed")
        assert (root / "reports" / "closed_report.json").read_bytes() == first

    @pytest.mark.parametrize("section,edit", [
        ("model", lambda d: d.update(dmodel=16)),
        ("adapter", lambda d: d.pop("alpha")),
        pytest.param("model", lambda d: d.update(d_model="16"),
                     id="model-d_model-str"),
        pytest.param("model", lambda d: d.update(d_model=True),
                     id="model-d_model-bool"),
        pytest.param("adapter", lambda d: d.update(top_k=1.0),
                     id="adapter-top_k-float"),
    ])
    def test_checkpoint_config_keys_checked(self, trained, capsys, section,
                                            edit):
        cfg, root = trained
        path = root / "checkpoints" / "model_config.json"
        payload = json.loads(path.read_text())
        edit(payload[section])
        path.write_text(json.dumps(payload))
        assert run(cfg, "eval", "--mode", "closed") == 2
        assert "checkpoint" in capsys.readouterr().err


def _cut(at):
    def edit(path: Path) -> None:
        blob = path.read_bytes()
        path.write_bytes(blob[:at(len(blob))])
    return edit


def _edit_arrays(change):
    def edit(path: Path) -> None:
        arrays = dict(_read_arrays(path))
        change(arrays)
        _write_arrays(path, arrays)
    return edit


def _set_entry(name, value):
    """Edit writing value into the first entry of the named array."""
    def change(arrays) -> None:
        arr = arrays[name].copy()
        arr.flat[0] = value
        arrays[name] = arr
    return _edit_arrays(change)


def _version_2(path: Path) -> None:
    blob = bytearray(path.read_bytes())
    blob[16] = 2
    path.write_bytes(bytes(blob))


def _old_layout(path: Path) -> None:
    path.unlink()
    (path.parent / "base_weights.bin").write_bytes(b"")
    (path.parent / "adapters.json").write_text("[]\n")


def _set_config(dotted, value):
    """Edit setting a dotted key of the model_config.json beside the
    weights."""
    def edit(path: Path) -> None:
        config = path.parent / "model_config.json"
        payload = json.loads(config.read_text())
        *sections, key = dotted.split(".")
        target = payload
        for section in sections:
            target = target[section]
        target[key] = value
        config.write_text(json.dumps(payload))
    return edit


def _undecorated(edit):
    """edit, applied after the checkpoint is replaced by an undecorated
    model of the same config."""
    def undecorate(path: Path) -> None:
        model = json.loads((path.parent / "model_config.json").read_text())
        save_checkpoint(path.parent,
                        ToyCausalLm(ToyModelConfig(**model["model"]), None))
        edit(path)
    return undecorate


# Edits of a trained workspace's weights.bin (or of the model_config.json
# beside it), each of which must make loading the checkpoint exit 2:
# (id, edit given the weights.bin path).
CORRUPTIONS = [
    *[(f"cut-at-{n}", _cut(lambda size, n=n: n))
      for n in (10, 16, 19, 23, 30)],
    ("cut-at-half", _cut(lambda size: size // 2)),
    ("one-byte-short", _cut(lambda size: size - 1)),
    ("trailing-byte", lambda p: p.write_bytes(p.read_bytes() + b"\0")),
    ("no-base-array", _edit_arrays(lambda a: a.pop("block0.attn.wq"))),
    ("no-expert-tensor", _edit_arrays(lambda a: a.pop("block0.down"))),
    ("no-router-tensor", _edit_arrays(lambda a: a.pop("block0.router"))),
    ("extra-expert", _edit_arrays(
        lambda a: a.update({"block0.expert0.up": a["block0.up"]}))),
    ("misshaped-expert", _edit_arrays(
        lambda a: a.update({"block0.up": a["block0.up"].T}))),
    ("nan-adapter-weight", _set_entry("block0.up", np.nan)),
    ("inf-adapter-weight", _set_entry("block0.down", -np.inf)),
    ("version-2-file", _version_2),
    ("misshaped-base", _edit_arrays(
        lambda a: a.update({"wpe": a["wpe"][:-1]}))),
    ("altered-base-value", _edit_arrays(
        lambda a: a.update({"wte": a["wte"] + 0.5}))),
    ("old-layout", _old_layout),
    ("single-adapter-kind", _set_config("adapter_kind", "single")),
    ("old-adapter-kind", _set_config("adapter_kind", "mixture")),
    ("extra-top-level-key", _set_config("note", "x")),
    ("nan-alpha", _set_config("adapter.alpha", float("nan"))),
    ("undecorated-empty-adapter", _undecorated(_set_config("adapter", {}))),
]


class TestCheckpointCorruption:
    @pytest.fixture(scope="class")
    def trained_config(self, tmp_path_factory):
        cfg = make_workspace(tmp_path_factory.mktemp("trained"))
        assert run(cfg, "curate") == 0 and run(cfg, "train") == 0
        return cfg

    @pytest.fixture
    def copied(self, trained_config, tmp_path):
        """A config whose checkpoint directory is a copy of the trained one,
        and that directory."""
        ckpt = tmp_path / "checkpoints"
        shutil.copytree(trained_config.parent / "checkpoints", ckpt)
        return set_key(trained_config, "paths.checkpoints", str(ckpt),
                       tmp_path / "cfg.json"), ckpt

    @pytest.mark.parametrize("edit", [case[1] for case in CORRUPTIONS],
                             ids=[case[0] for case in CORRUPTIONS])
    def test_corrupt_weights_exit_two(self, copied, capsys, edit):
        cfg, ckpt = copied
        edit(ckpt / "weights.bin")
        assert run(cfg, "eval", "--mode", "closed") == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_untouched_copy_loads(self, copied):
        cfg, _ = copied
        assert run(cfg, "eval", "--mode", "closed") == 0

    def test_undecorated_copy_loads(self, copied):
        cfg, ckpt = copied
        _undecorated(lambda path: None)(ckpt / "weights.bin")
        assert json.loads((ckpt / "model_config.json").read_text())[
            "adapter"] is None
        assert run(cfg, "eval", "--mode", "closed") == 0


class TestReportCommand:
    def test_rerenders_saved_report(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        run(cfg, "curate")
        run(cfg, "train")
        run(cfg, "eval", "--mode", "closed")
        capsys.readouterr()
        assert run(cfg, "report", "--mode", "closed") == 0
        assert "RA-closed" in capsys.readouterr().out

        (tmp_path / "reports" / "closed_report.json").write_text(
            '{"mode": "closed", "record_count": 1}\n', encoding="utf-8")
        assert run(cfg, "report", "--mode", "closed") == 2

    def test_missing_report_exits_two(self, tmp_path):
        cfg = make_workspace(tmp_path)
        assert run(cfg, "report", "--mode", "open") == 2


class TestGradcheckCommand:
    def test_default_config_passes(self, tmp_path, capsys):
        cfg = make_workspace(tmp_path)
        assert run(cfg, "gradcheck") == 0
        assert "max relative error:" in capsys.readouterr().out


class TestConfigHandling:
    def test_missing_config_file_exits_two(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "nope.json"),
                         "curate"]) == 2

    def test_malformed_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["--config", str(bad), "curate"]) == 2

    def test_seed_flag_accepted(self, tmp_path):
        cfg = make_workspace(tmp_path)
        assert cli.main(["--config", str(cfg), "--seed", "3",
                         "--stub-clients", "curate"]) == 0

    @pytest.fixture(scope="class")
    def trained_config(self, tmp_path_factory):
        cfg = make_workspace(tmp_path_factory.mktemp("trained"))
        assert run(cfg, "curate") == 0 and run(cfg, "train") == 0
        return cfg

    @pytest.mark.parametrize(
        "dotted,value,argv", REJECTED_KEYS + NON_FINITE_KEYS,
        ids=[case[0] for case in REJECTED_KEYS]
        + [f"{case[0]}={case[1]}" for case in NON_FINITE_KEYS])
    def test_rejected_key_exits_two_naming_it(self, trained_config, tmp_path,
                                              capsys, dotted, value, argv):
        cfg = set_key(trained_config, dotted, value, tmp_path / "cfg.json")
        assert run(cfg, *argv) == 2
        assert repr(dotted) in capsys.readouterr().err

    @pytest.mark.parametrize("dotted,value,argv,named", CLIENT_TYPOS,
                             ids=[case[3] for case in CLIENT_TYPOS])
    def test_client_spec_checked(self, trained_config, tmp_path, capsys,
                                 dotted, value, argv, named):
        cfg = set_key(trained_config, dotted, value, tmp_path / "cfg.json")
        assert run(cfg, *argv) == 2
        assert repr(named) in capsys.readouterr().err

    def test_int_stands_for_float(self, tmp_path):
        ckpts = []
        for alpha in (4.0, 4):
            root = tmp_path / type(alpha).__name__
            cfg = set_key(make_workspace(root), "adapter.alpha", alpha,
                          root / "config.json")
            assert run(cfg, "curate") == 0 and run(cfg, "train") == 0
            ckpts.append({p.name: p.read_bytes()
                          for p in (root / "checkpoints").iterdir()})
        assert ckpts[0] == ckpts[1]

    def test_defaults_match_dataclass_defaults(self):
        d = cli.DEFAULT_CONFIG
        assert RetrievalConfig(**d["retrieval"]) == RetrievalConfig()
        assert ToyModelConfig(**d["model"], seed=d["seed"]) == ToyModelConfig()
        assert TrainConfig(**d["train"], seed=d["seed"]) == TrainConfig()
        assert AdapterSpec(**d["adapter"]) == AdapterSpec()
        eval_defaults = EvalConfig(embedder=None)
        assert d["eval"] == {k: getattr(eval_defaults, k) for k in d["eval"]}
        for section, cls in (("retrieval", RetrievalConfig),
                             ("model", ToyModelConfig),
                             ("adapter", AdapterSpec),
                             ("train", TrainConfig), ("eval", EvalConfig)):
            types = {f.name: f.type for f in fields(cls)}
            for key, value in d[section].items():
                assert type(value).__name__ == types[key], (section, key)
