"""Caption and localization metrics.

All scores live in [0, 1]; presentation layers multiply by 100. The corpus
BLEU-4 here is the classic clipped-precision formulation with a brevity
penalty and no smoothing; a separately named add-one variant exists for
per-sample diagnostics only and never feeds the headline numbers.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .grammar import parse_caption


# -- caption overlap -----------------------------------------------------------


def clipped_ngrams(cand, ref, n: int) -> tuple[int, int]:
    """(clipped matches, total) of the order-`n` n-grams of `cand` against `ref`."""
    cg = Counter(tuple(cand[i : i + n]) for i in range(len(cand) - n + 1))
    rg = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
    return sum(min(c, rg[g]) for g, c in cg.items()), sum(cg.values())


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
    pairs = [(list(c), list(r)) for c, r in zip(candidates, references)]
    c_len = sum(len(c) for c, _ in pairs)
    r_len = sum(len(r) for _, r in pairs)
    counts = [[clipped_ngrams(c, r, n) for c, r in pairs] for n in range(1, max_n + 1)]
    match = [sum(m for m, _ in row) for row in counts]
    total = [sum(t for _, t in row) for row in counts]
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
        m, t = clipped_ngrams(candidate, reference, n)
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
    JSON-ready dict. Every score but `bleu4` is a mean over the `per_sample`
    records. Besides the corpus scores it holds the slices `iou_<bucket>`,
    `iou_scenario_<scenario>`, `iou_class_<risk_class>` and, for each flag
    f of hr_critical and distractor, `iou_f` or `iou_not_f` and
    `risk_class_acc_f` or `risk_class_acc_not_f`; an empty slice is absent.
    """
    if len(samples) != len(predictions):
        raise ValueError("sample and prediction counts differ")
    if not samples:
        raise ValueError("cannot evaluate an empty set")

    refs = [list(s["caption_tokens"]) for s in samples]
    hyps = [list(p["tokens"]) for p in predictions]
    box_valid = [box_is_valid(p["box"]) for p in predictions]
    per_sample = []
    for s, p, ref, hyp, valid in zip(samples, predictions, refs, hyps, box_valid):
        pred_class = parse_caption(hyp).obj_class
        per_sample.append(
            {
                "id": s["id"],
                "iou": iou(p["box"], s["box"]) if valid else 0.0,
                "bucket": s["bucket"],
                "hr_critical": s["hr_critical"],
                "distractor": s["distractor"],
                "scenario": s["scenario"],
                "pred_class": pred_class,
                "true_class": s["risk_class"],
                "class_hit": pred_class == s["risk_class"],
                "exact": hyp == ref,
                "box_source": p["box_source"],
                "bleu_smoothed": sentence_bleu_smoothed(hyp, ref),
            }
        )

    slices: dict[str, list] = {}
    for r in per_sample:
        flags = [f if r[f] else f"not_{f}" for f in ("hr_critical", "distractor")]
        for name in (r["bucket"], f"scenario_{r['scenario']}", f"class_{r['true_class']}", *flags):
            slices.setdefault(f"iou_{name}", []).append(r["iou"])
        for name in flags:
            slices.setdefault(f"risk_class_acc_{name}", []).append(r["class_hit"])

    n = len(per_sample)
    bleu = corpus_bleu(hyps, refs)
    miou = sum(r["iou"] for r in per_sample) / n
    return {
        "n": n,
        "bleu4": bleu,
        "miou": miou,
        "avg": (bleu + miou) / 2.0,
        "exact_match": sum(r["exact"] for r in per_sample) / n,
        "risk_class_acc": float(np.mean([r["class_hit"] for r in per_sample])),
        "box_valid_rate": sum(box_valid) / n,
        "per_sample": per_sample,
        **{key: float(np.mean(values)) for key, values in slices.items()},
    }
