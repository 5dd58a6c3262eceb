"""The one file writer: JSON and CSV bytes, atomic replacement and the log appender."""

import csv
import json
import os

import numpy as np
import pytest

from hirisk import costmodel
from hirisk.config import RunConfig, SceneConfig, config_hash
from hirisk.files import json_text, open_append, write_atomic, write_csv, write_json
from hirisk.metrics import evaluate_predictions
from hirisk.rng import named_rng
from hirisk.scenes import MANIFEST_VERSION, SceneDataset, save_dataset
from hirisk.train import GRID_CSV_COLUMNS, evaluation_samples

# -- the renderings the single writer replaced, kept as references -------------


def _reference_json(obj) -> str:
    """How the manifest, the eval report and the ablation table were rendered."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _json_safe(obj):
    """How the checkpoint turned numpy values in the RNG state into plain ones."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _reference_csv(path, rows, fields) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fields), extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


# -- artifacts -----------------------------------------------------------------

SCENE = SceneConfig(n_train=2, n_test=3, clip_len=3, lr_size=16, hr_size=64, seed=4)


@pytest.fixture(scope="module")
def test_split():
    return SceneDataset.generate(SCENE, "test")


def _report(ds):
    samples = evaluation_samples(ds, "span_query")
    preds = [{"tokens": s["caption_tokens"][:-1], "box": s["box"] if i else None,
              "box_source": "qdh"} for i, s in enumerate(samples)]
    return evaluate_predictions(samples, preds)


def _grid_table(ds):
    rep = _report(ds)
    row = {"name": "full", "seeds": [0, 1], "config_hash": config_hash(RunConfig()),
           "reports": [rep, rep]}
    for key in ("miou", "bleu4"):
        row.update({f"{key}_mean": rep[key], f"{key}_min": rep[key] / 3, f"{key}_max": 1.0})
    return [row, {**row, "name": "baseline_only"}]


def _manifest(ds):
    return {"version": MANIFEST_VERSION, "split": "test", "config": vars(SCENE),
            "samples": ds.meta}


@pytest.mark.parametrize("make", [_manifest, _report, _grid_table],
                         ids=["manifest", "eval_report", "ablation_table"])
def test_json_text_renders_as_the_writers_it_replaced(test_split, make):
    obj = make(test_split)
    assert json_text(obj) == _reference_json(obj)


def test_save_dataset_writes_the_manifest_json_text_renders(tmp_path, test_split):
    save_dataset(test_split, SCENE, str(tmp_path), "test")
    written = (tmp_path / "test_manifest.json").read_bytes()
    assert written == _reference_json(_manifest(test_split)).encode()


@pytest.mark.parametrize("state", [
    named_rng(0, "train/order").bit_generator.state,
    np.random.MT19937(3).state,  # holds its key as a uint32 array
    {"a": np.float32(0.1), "b": (np.int64(2), np.bool_(True)), "c": np.arange(3.0)},
], ids=["pcg64", "mt19937", "numpy_scalars"])
def test_rng_state_renders_as_json_safe_rendered_it(state):
    assert json_text(state) == _reference_json(_json_safe(state))


@pytest.mark.parametrize("artifact", ["metrics_csv", "cost_csv", "ablation_csv"])
def test_write_csv_gives_the_bytes_of_the_writers_it_replaced(tmp_path, test_split, artifact):
    if artifact == "metrics_csv":
        rows = _report(test_split)["per_sample"]
        fields = rows[0].keys()
    elif artifact == "cost_csv":
        rows, fields = costmodel.profile(), costmodel.CSV_COLUMNS
    else:
        rows, fields = _grid_table(test_split), GRID_CSV_COLUMNS
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    if artifact == "ablation_csv":
        # as `run_ablation_grid` passes them: each row cut to the table's columns
        write_csv(new, [{k: r[k] for k in fields if k in r} for r in rows], fields)
    else:
        write_csv(new, rows, fields)
    _reference_csv(old, rows, fields)
    assert new.read_bytes() == old.read_bytes()


def test_write_csv_refuses_a_key_outside_its_columns(tmp_path):
    with pytest.raises(ValueError, match="'extra'"):
        write_csv(tmp_path / "rows.csv", [{"id": 1, "extra": 2}], ["id"])
    assert os.listdir(tmp_path) == []


def _fails_part_way(fh):
    fh.write(b'{"miou": ')
    raise OSError("disk full")


def test_a_write_that_fails_part_way_keeps_the_previous_file(tmp_path):
    path = tmp_path / "metrics.json"
    write_json(path, {"miou": 0.5})
    with open(path, "rb") as fh:
        before = fh.read()
    with pytest.raises(OSError, match="disk full"):
        write_atomic(path, _fails_part_way)
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        write_json(path, {"miou": object()})
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["metrics.json"]


def test_open_append_creates_the_file_then_appends_to_it(tmp_path):
    path = tmp_path / "log.txt"
    for line in ("first", "second"):
        with open_append(path) as fh:
            fh.write(line + "\n")
    assert path.read_text(encoding="utf-8") == "first\nsecond\n"
