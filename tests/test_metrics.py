"""Caption and box metric checks against hand-derived values."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from hirisk.files import json_text, write_csv, write_json
from hirisk.metrics import (
    box_is_valid,
    corpus_bleu,
    evaluate_predictions,
    iou,
    sentence_bleu_smoothed,
)


# -- reference implementation (independent route, exact rationals) -------------


def _ngram_counts(toks, n):
    out = {}
    for i in range(len(toks) - n + 1):
        g = tuple(toks[i : i + n])
        out[g] = out.get(g, 0) + 1
    return out


def bleu_reference(pairs, max_n=4):
    """Exact-rational corpus BLEU used only to cross-check the real one."""
    match = [0] * max_n
    total = [0] * max_n
    c_len = r_len = 0
    for cand, ref in pairs:
        c_len += len(cand)
        r_len += len(ref)
        for n in range(1, max_n + 1):
            cg = _ngram_counts(cand, n)
            rg = _ngram_counts(ref, n)
            total[n - 1] += sum(cg.values())
            match[n - 1] += sum(min(c, rg.get(g, 0)) for g, c in cg.items())
    if c_len == 0 or any(m == 0 for m in match) or any(t == 0 for t in total):
        return 0.0
    prod = Fraction(1)
    for m, t in zip(match, total):
        prod *= Fraction(m, t)
    geo = (prod.numerator / prod.denominator) ** (1.0 / max_n)
    bp = 1.0 if c_len >= r_len else math.exp(1.0 - r_len / c_len)
    return bp * geo


# -- corpus BLEU ---------------------------------------------------------------


def test_bleu_identical_is_one():
    toks = "the cat sat on the mat".split()
    assert corpus_bleu([toks], [toks]) == 1.0


def test_bleu_no_fourgram_overlap_is_zero():
    cand = "the cat sat on the mat".split()
    ref = "the cat is on the mat".split()
    assert corpus_bleu([cand], [ref]) == 0.0


def test_bleu_appended_token_closed_form():
    # precisions 5/6, 4/5, 3/4, 2/3 -> product 1/3, BP 1
    cand = "a b c d e x".split()
    ref = "a b c d e".split()
    want = (1.0 / 3.0) ** 0.25  # 0.7598356856515926
    assert abs(corpus_bleu([cand], [ref]) - want) < 1e-12


def test_bleu_brevity_penalty_closed_form():
    # all precisions exactly 1, candidate one token short -> exp(-1/5)
    cand = "a b c d e".split()
    ref = "a b c d e f".split()
    want = math.exp(-0.2)  # 0.8187307530779818
    assert abs(corpus_bleu([cand], [ref]) - want) < 1e-12


def test_bleu_two_sample_corpus_closed_form():
    # pooled precisions 9/10, 7/8, 5/6, 3/4 -> (63/128)^(1/4)
    pairs = [
        ("a b c d".split(), "a b c d".split()),
        ("a b c d e x".split(), "a b c d e".split()),
    ]
    want = (63.0 / 128.0) ** 0.25  # 0.8375922397086270
    got = corpus_bleu([p[0] for p in pairs], [p[1] for p in pairs])
    assert abs(got - want) < 1e-12


def test_bleu_unigram_clipping():
    # six candidate "the" against two reference "the": clipped to 2/6
    cand = ["the"] * 6
    ref = "the cat is on the mat".split()
    got = corpus_bleu([cand], [ref], max_n=1)
    assert abs(got - 1.0 / 3.0) < 1e-12


def test_bleu_matches_reference_on_random_corpora():
    rng = np.random.default_rng(11)
    vocab = list("abcdef")
    for _ in range(200):
        pairs = []
        for _ in range(int(rng.integers(1, 5))):
            cand = [vocab[i] for i in rng.integers(0, 6, size=int(rng.integers(1, 13)))]
            ref = [vocab[i] for i in rng.integers(0, 6, size=int(rng.integers(1, 13)))]
            pairs.append((cand, ref))
        got = corpus_bleu([p[0] for p in pairs], [p[1] for p in pairs])
        want = bleu_reference(pairs)
        assert abs(got - want) < 1e-12


def test_bleu_monotone_under_reference_replacement():
    rng = np.random.default_rng(5)
    vocab = list("abcdefgh")
    cands = [[vocab[i] for i in rng.integers(0, 8, size=8)] for _ in range(5)]
    refs = [[vocab[i] for i in rng.integers(0, 8, size=8)] for _ in range(5)]
    prev = corpus_bleu(cands, refs)
    for k in range(5):
        refs[k] = list(cands[k])  # make one more reference a perfect match
        cur = corpus_bleu(cands, refs)
        assert cur >= prev - 1e-12
        prev = cur
    assert prev == 1.0


def test_bleu_empty_corpus_raises():
    with pytest.raises(ValueError):
        corpus_bleu([], [])


def test_bleu_length_mismatch_raises():
    with pytest.raises(ValueError):
        corpus_bleu([["a"]], [])


def test_sentence_bleu_smoothed_basics():
    toks = "a b c d e".split()
    assert sentence_bleu_smoothed(toks, toks) == 1.0
    partial = sentence_bleu_smoothed("a b c x y".split(), toks)
    assert 0.0 < partial < 1.0
    assert sentence_bleu_smoothed("q r s t u".split(), toks) == 0.0


# -- IoU -----------------------------------------------------------------------


def test_iou_hand_values():
    assert iou([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert iou([0, 0, 0.4, 0.4], [0.5, 0.5, 1, 1]) == 0.0
    # quarter-overlapping squares: inter 1/16, union 7/16
    got = iou([0, 0, 0.5, 0.5], [0.25, 0.25, 0.75, 0.75])
    assert abs(got - 1.0 / 7.0) < 1e-12
    # containment equals area ratio
    assert abs(iou([0, 0, 1, 1], [0.25, 0.25, 0.75, 0.75]) - 0.25) < 1e-12


def test_iou_invalid_boxes_raise():
    with pytest.raises(ValueError):
        iou([0, 0, 1, 1], [0.5, 0.5, 0.5, 1.0])  # zero width
    with pytest.raises(ValueError):
        iou([0, 0, 1, 1], [0.6, 0.2, 0.4, 0.8])  # reversed x
    with pytest.raises(ValueError):
        iou([0, 0, 1, 1], [0, 0, float("nan"), 1])
    with pytest.raises(ValueError):
        iou([0, 0, 1, 1], [0, 0, 1])


def test_iou_random_box_properties():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        x1, y1 = rng.uniform(0, 0.8, size=2)
        w, h = rng.uniform(0.05, 0.2, size=2)
        a = [x1, y1, x1 + w, y1 + h]
        u1, v1 = rng.uniform(0, 0.8, size=2)
        w2, h2 = rng.uniform(0.05, 0.2, size=2)
        b = [u1, v1, u1 + w2, v1 + h2]
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert iou(b, a) == v
        assert iou(a, a) == 1.0
        # translation invariance
        d = rng.uniform(-0.1, 0.1, size=2)
        a2 = [a[0] + d[0], a[1] + d[1], a[2] + d[0], a[3] + d[1]]
        b2 = [b[0] + d[0], b[1] + d[1], b[2] + d[0], b[3] + d[1]]
        assert abs(iou(a2, b2) - v) < 1e-9
        # boxes pushed to opposite sides of a gap never overlap
        far = [a[0] + 2.0, a[1], a[2] + 2.0, a[3]]
        assert iou(a, far) == 0.0


def test_box_is_valid():
    assert box_is_valid((0.1, 0.1, 0.5, 0.5))
    assert not box_is_valid(None)
    assert not box_is_valid((0.5, 0.1, 0.1, 0.5))
    assert not box_is_valid("nonsense")


# -- evaluation report ---------------------------------------------------------


def _toy_eval():
    ref1 = "there is a red car".split()
    ref2 = "there is a blue truck".split()
    ref3 = "there is a green pedestrian".split()
    samples = [
        {"id": 0, "caption_tokens": ref1, "box": [0.25, 0.25, 0.75, 0.75],
         "risk_class": "car", "bucket": "L", "distractor": False, "hr_critical": True,
         "scenario": "end_in_band"},
        {"id": 1, "caption_tokens": ref2, "box": [0.25, 0.25, 0.75, 0.75],
         "risk_class": "truck", "bucket": "L", "distractor": True, "hr_critical": False,
         "scenario": "cross_left"},
        {"id": 2, "caption_tokens": ref3, "box": [0.1, 0.1, 0.18, 0.18],
         "risk_class": "pedestrian", "bucket": "S", "distractor": True, "hr_critical": True,
         "scenario": "end_in_band"},
    ]
    preds = [
        {"tokens": list(ref1), "box": (0.25, 0.25, 0.75, 0.75), "box_source": "head"},
        {"tokens": "there is a red car".split(), "box": (0.0, 0.0, 0.5, 0.5), "box_source": "head"},
        {"tokens": list(ref3), "box": None, "box_source": "sentinel"},
    ]
    return samples, preds


def test_evaluate_report_values():
    samples, preds = _toy_eval()
    rep = evaluate_predictions(samples, preds)
    assert rep["n"] == 3
    # ious: 1.0, 1/7 (quarter overlap), 0.0 (missing box)
    assert abs(rep["miou"] - (1.0 + 1.0 / 7.0) / 3.0) < 1e-12
    assert abs(rep["iou_L"] - (1.0 + 1.0 / 7.0) / 2.0) < 1e-12
    assert rep["iou_S"] == 0.0
    assert "iou_M" not in rep
    # sample 1 predicted the wrong class (car against truck)
    assert abs(rep["risk_class_acc"] - 2.0 / 3.0) < 1e-12
    assert abs(rep["risk_class_acc_distractor"] - 0.5) < 1e-12
    assert abs(rep["exact_match"] - 2.0 / 3.0) < 1e-12
    assert abs(rep["box_valid_rate"] - 2.0 / 3.0) < 1e-12
    assert rep["avg"] == (rep["bleu4"] + rep["miou"]) / 2.0
    assert len(rep["per_sample"]) == 3
    assert rep["per_sample"][2]["box_source"] == "sentinel"


def test_evaluate_hr_critical_slices():
    samples, preds = _toy_eval()
    rep = evaluate_predictions(samples, preds)
    # ious 1.0 and 0.0 are HR-critical, 1/7 is not
    assert rep["iou_hr_critical"] == 0.5
    assert abs(rep["iou_not_hr_critical"] - 1.0 / 7.0) < 1e-12
    assert [r["hr_critical"] for r in rep["per_sample"]] == [True, False, True]
    # class hits 1, 0 and 1: the miss is the one scene that is not HR-critical
    assert rep["risk_class_acc_hr_critical"] == 1.0
    assert rep["risk_class_acc_not_hr_critical"] == 0.0
    # an empty slice is absent, as an empty size bucket is
    samples[1]["hr_critical"] = True
    rep = evaluate_predictions(samples, preds)
    assert "iou_not_hr_critical" not in rep
    assert "risk_class_acc_not_hr_critical" not in rep
    assert abs(rep["iou_hr_critical"] - rep["miou"]) < 1e-12
    assert rep["risk_class_acc_hr_critical"] == rep["risk_class_acc"]


def test_evaluate_distractor_scenario_and_class_slices():
    samples, preds = _toy_eval()
    rep = evaluate_predictions(samples, preds)
    # ious 1.0, 1/7 and 0.0; samples 1 and 2 are distractor scenes
    assert abs(rep["iou_distractor"] - 1.0 / 14.0) < 1e-12
    assert rep["iou_not_distractor"] == 1.0
    assert rep["iou_scenario_end_in_band"] == 0.5
    assert abs(rep["iou_scenario_cross_left"] - 1.0 / 7.0) < 1e-12
    assert rep["iou_class_car"] == 1.0
    assert abs(rep["iou_class_truck"] - 1.0 / 7.0) < 1e-12
    assert rep["iou_class_pedestrian"] == 0.0
    assert {key for key in rep if key.startswith("iou_class_")} == {
        "iou_class_car", "iou_class_truck", "iou_class_pedestrian"}
    assert [r["distractor"] for r in rep["per_sample"]] == [False, True, True]
    assert [r["scenario"] for r in rep["per_sample"]] == ["end_in_band", "cross_left", "end_in_band"]
    assert rep["risk_class_acc_not_distractor"] == 1.0
    # an empty slice is absent
    for s in samples:
        s["distractor"] = True
    rep = evaluate_predictions(samples, preds)
    assert "iou_not_distractor" not in rep
    assert "risk_class_acc_not_distractor" not in rep
    assert abs(rep["iou_distractor"] - rep["miou"]) < 1e-12
    assert rep["risk_class_acc_distractor"] == rep["risk_class_acc"]


def test_every_score_but_bleu_is_a_mean_over_the_records():
    samples, preds = _toy_eval()
    rep = evaluate_predictions(samples, preds)
    records = rep["per_sample"]

    def mean(key, keep=lambda r: True):
        values = [r[key] for r in records if keep(r)]
        return pytest.approx(sum(values) / len(values), abs=1e-15)

    assert rep["miou"] == mean("iou")
    assert rep["exact_match"] == mean("exact")
    assert rep["risk_class_acc"] == mean("class_hit")
    assert rep["box_valid_rate"] == np.mean([box_is_valid(p["box"]) for p in preds])
    want = {"n", "bleu4", "miou", "avg", "exact_match", "risk_class_acc", "box_valid_rate",
            "per_sample"}
    for field, prefix in (("bucket", ""), ("scenario", "scenario_"), ("true_class", "class_")):
        for value in {r[field] for r in records}:
            key = f"iou_{prefix}{value}"
            assert rep[key] == mean("iou", lambda r: r[field] == value), key
            want.add(key)
    for flag in ("hr_critical", "distractor"):
        for name, on in ((flag, True), (f"not_{flag}", False)):
            assert rep[f"iou_{name}"] == mean("iou", lambda r: r[flag] == on)
            assert rep[f"risk_class_acc_{name}"] == mean("class_hit", lambda r: r[flag] == on)
            want |= {f"iou_{name}", f"risk_class_acc_{name}"}
    assert set(rep) == want


def test_evaluate_reads_the_record_as_written():
    # no field is recomputed or defaulted: a record without its bucket is a caller error
    samples, preds = _toy_eval()
    del samples[2]["bucket"]
    with pytest.raises(KeyError, match="bucket"):
        evaluate_predictions(samples, preds)


def test_evaluate_empty_or_mismatched_raises():
    samples, preds = _toy_eval()
    with pytest.raises(ValueError):
        evaluate_predictions([], [])
    with pytest.raises(ValueError):
        evaluate_predictions(samples, preds[:2])


def test_report_json_round_trip(tmp_path):
    samples, preds = _toy_eval()
    rep = evaluate_predictions(samples, preds)
    path = tmp_path / "metrics.json"
    write_json(path, rep)
    with open(path, encoding="utf-8") as fh:
        again = json.load(fh)
    assert again == rep
    assert json_text(again) == json_text(rep)
    # identical evaluations give identical bytes
    rep2 = evaluate_predictions(*_toy_eval())
    assert json_text(rep2) == json_text(rep)


def test_report_csv_export(tmp_path):
    samples, preds = _toy_eval()
    rep = evaluate_predictions(samples, preds)
    path = tmp_path / "per_sample.csv"
    write_csv(path, rep["per_sample"], rep["per_sample"][0].keys())
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("id,iou,bucket")


def test_report_is_json_serializable_types():
    samples, preds = _toy_eval()
    rep = evaluate_predictions(samples, preds)
    parsed = json.loads(json_text(rep))
    assert parsed == rep
