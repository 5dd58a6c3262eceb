"""Caption and localization metrics.

All scores live in [0, 1]; presentation layers multiply by 100. The corpus
BLEU-4 here is the classic clipped-precision formulation with a brevity
penalty and no smoothing; a separately named add-one variant exists for
per-sample diagnostics only and never feeds the headline numbers.
"""

from __future__ import annotations

import csv
import json
from collections import Counter

import numpy as np

from .grammar import parse_caption


# -- caption overlap -----------------------------------------------------------


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(candidates, references, max_n: int = 4) -> float:
    """Corpus-level BLEU with clipped precisions and brevity penalty.

    candidates and references are parallel lists of token lists (one
    reference per candidate). Any zero n-gram precision zeroes the score;
    there is no smoothing.
    """
    if len(candidates) != len(references):
        raise ValueError("candidate and reference counts differ")
    if not candidates:
        raise ValueError("cannot score an empty corpus")
    match = [0] * max_n
    total = [0] * max_n
    c_len = 0
    r_len = 0
    for cand, ref in zip(candidates, references):
        cand = list(cand)
        ref = list(ref)
        c_len += len(cand)
        r_len += len(ref)
        for n in range(1, max_n + 1):
            cg = _ngrams(cand, n)
            rg = _ngrams(ref, n)
            total[n - 1] += sum(cg.values())
            match[n - 1] += sum(min(c, rg[g]) for g, c in cg.items())
    if c_len == 0 or any(t == 0 for t in total) or any(m == 0 for m in match):
        return 0.0
    log_p = sum(np.log(m / t) for m, t in zip(match, total)) / max_n
    bp = 1.0 if c_len >= r_len else float(np.exp(1.0 - r_len / c_len))
    return float(bp * np.exp(log_p))


def sentence_bleu_smoothed(candidate, reference, max_n: int = 4) -> float:
    """Add-one smoothed single-sentence score, for inspection dumps only."""
    candidate = list(candidate)
    reference = list(reference)
    if not candidate:
        return 0.0
    log_p = 0.0
    for n in range(1, max_n + 1):
        cg = _ngrams(candidate, n)
        rg = _ngrams(reference, n)
        t = sum(cg.values())
        m = sum(min(c, rg[g]) for g, c in cg.items())
        if n == 1:
            if m == 0 or t == 0:
                return 0.0
            log_p += np.log(m / t)
        else:
            log_p += np.log((m + 1.0) / (t + 1.0))
    bp = 1.0 if len(candidate) >= len(reference) else float(np.exp(1.0 - len(reference) / len(candidate)))
    return float(bp * np.exp(log_p / max_n))


# -- boxes ---------------------------------------------------------------------


def _check_box(box) -> np.ndarray:
    arr = np.asarray(box, dtype=np.float64).reshape(-1)
    if arr.shape != (4,):
        raise ValueError("a box is four numbers: x1, y1, x2, y2")
    if not np.all(np.isfinite(arr)):
        raise ValueError("box coordinates must be finite")
    if arr[2] <= arr[0] or arr[3] <= arr[1]:
        raise ValueError("box extent must be positive")
    return arr


def box_is_valid(box) -> bool:
    if box is None:
        return False
    try:
        _check_box(box)
    except (ValueError, TypeError):
        return False
    return True


def iou(a, b) -> float:
    """Intersection over union of two corner boxes."""
    a = _check_box(a)
    b = _check_box(b)
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return float(inter / union)


# -- full evaluation -----------------------------------------------------------


def evaluate_predictions(samples, predictions) -> dict:
    """Score decoded outputs against ground truth.

    samples: scene manifest records (see `scenes.SceneSample`) with `id` and
    `caption_tokens` added; evaluation reads caption_tokens, box, bucket,
    risk_class, hr_critical, distractor, scenario and id.
    predictions: dicts with tokens, box (tuple or None), box_source.

    A missing or malformed predicted box scores zero overlap instead of
    raising: that is a model failure, not a caller error. Returns a plain
    JSON-ready dict. Besides the size buckets it holds the mIoU slices
    `iou_hr_critical`/`iou_not_hr_critical`, `iou_distractor`/
    `iou_not_distractor`, `iou_scenario_<scenario>` and
    `iou_class_<risk_class>`; empty buckets and slices are simply absent.
    """
    if len(samples) != len(predictions):
        raise ValueError("sample and prediction counts differ")
    if not samples:
        raise ValueError("cannot evaluate an empty set")

    refs = []
    hyps = []
    per_sample = []
    bucket_ious: dict[str, list[float]] = {}
    slice_ious: dict[str, list[float]] = {}
    class_hits = []
    distractor_hits = []
    exact = 0
    n_valid_box = 0
    iou_sum = 0.0

    for s, p in zip(samples, predictions):
        ref = list(s["caption_tokens"])
        hyp = list(p["tokens"])
        refs.append(ref)
        hyps.append(hyp)

        box = p["box"]
        if box_is_valid(box):
            n_valid_box += 1
            overlap = iou(box, s["box"])
        else:
            overlap = 0.0
        iou_sum += overlap
        bucket_ious.setdefault(s["bucket"], []).append(overlap)
        for name in ("hr_critical", "distractor"):
            key = f"iou_{name}" if s[name] else f"iou_not_{name}"
            slice_ious.setdefault(key, []).append(overlap)
        slice_ious.setdefault(f"iou_scenario_{s['scenario']}", []).append(overlap)
        slice_ious.setdefault(f"iou_class_{s['risk_class']}", []).append(overlap)

        parsed = parse_caption(hyp)
        hit = parsed.obj_class == s["risk_class"]
        class_hits.append(hit)
        if s["distractor"]:
            distractor_hits.append(hit)
        is_exact = hyp == ref
        exact += is_exact

        per_sample.append(
            {
                "id": s["id"],
                "iou": float(overlap),
                "bucket": s["bucket"],
                "hr_critical": s["hr_critical"],
                "distractor": s["distractor"],
                "scenario": s["scenario"],
                "pred_class": parsed.obj_class,
                "true_class": s["risk_class"],
                "class_hit": bool(hit),
                "exact": bool(is_exact),
                "box_source": p["box_source"],
                "bleu_smoothed": sentence_bleu_smoothed(hyp, ref),
            }
        )

    n = len(samples)
    bleu = corpus_bleu(hyps, refs)
    mean_iou = iou_sum / n
    report = {
        "n": n,
        "bleu4": float(bleu),
        "miou": float(mean_iou),
        "avg": float((bleu + mean_iou) / 2.0),
        "exact_match": exact / n,
        "risk_class_acc": float(np.mean(class_hits)),
        "box_valid_rate": n_valid_box / n,
        "per_sample": per_sample,
    }
    for name in ("S", "M", "L"):
        if name in bucket_ious:
            report[f"iou_{name}"] = float(np.mean(bucket_ious[name]))
    for key, vals in slice_ious.items():
        report[key] = float(np.mean(vals))
    if distractor_hits:
        report["risk_class_acc_distractor"] = float(np.mean(distractor_hits))
    return report


# -- serialization -------------------------------------------------------------


def report_to_json(report: dict) -> str:
    """Canonical rendering: identical reports give identical bytes."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def save_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))


def export_csv(report: dict, path) -> None:
    """Per-sample rows for spreadsheet inspection."""
    rows = report.get("per_sample", [])
    if not rows:
        raise ValueError("report has no per-sample records")
    fields = list(rows[0].keys())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
