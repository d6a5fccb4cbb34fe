import json
from pathlib import Path

import numpy as np
import pytest

from loramix import cli
from loramix.model import AdapterSpec, ToyModelConfig, build_frozen_model
from loramix.training import load_checkpoint


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
        "train": {"lr": 1e-3, "batch_size": 8, "epochs": train_epochs,
                  "n_experts": 2, "top_k": 1, "rank": 2, "alpha": 4.0},
        "eval": {"max_new_tokens": 8},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2))
    return cfg_path


def run(cfg_path, *argv):
    return cli.main(["--config", str(cfg_path), "--stub-clients", *argv])


class TestCurateCommand:
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
        fresh = build_frozen_model(
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

    def test_zero_epsilon_exits_two(self, tmp_path):
        cfg = make_workspace(tmp_path)
        assert run(cfg, "gradcheck", "--epsilon", "0") == 2

    def test_oversized_model_refused(self, tmp_path):
        cfg = make_workspace(tmp_path)
        data = json.loads(cfg.read_text())
        data["gradcheck"] = {"vocab_size": 256, "d_model": 64, "n_layers": 2,
                             "n_heads": 2, "d_ff": 128, "max_seq_len": 64,
                             "n_experts": 8, "top_k": 2, "rank": 8,
                             "alpha": 16.0}
        cfg.write_text(json.dumps(data))
        assert run(cfg, "gradcheck") == 2


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
