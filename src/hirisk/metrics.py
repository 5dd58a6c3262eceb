"""Caption and localization metrics.

All scores live in [0, 1]; presentation layers multiply by 100. Both BLEU
scores come from one `clipped_counts` per sample. Corpus BLEU-4 sums them:
clipped precisions, a brevity penalty and no smoothing. The add-one smoothed
per-sample score is for diagnostics only; it never feeds the headline numbers.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .grammar import parse_caption


# -- caption overlap -----------------------------------------------------------

BLEU_ORDER = 4


def clipped_counts(cand, ref) -> list[tuple[int, int]]:
    """(clipped matches, total) of `cand`'s n-grams against `ref`'s, for orders 1 to BLEU_ORDER."""
    counts = []
    for n in range(1, BLEU_ORDER + 1):
        cg, rg = (Counter(tuple(t[i : i + n]) for i in range(len(t) - n + 1)) for t in (cand, ref))
        counts.append((sum(min(c, rg[g]) for g, c in cg.items()), sum(cg.values())))
    return counts


def _bleu(counts, ref_len: int, smooth: bool = False) -> float:
    """BLEU of pairs' `clipped_counts`, summed per order, against `ref_len` reference
    tokens. A zero precision gives 0; `smooth` adds one to both counts from order 2."""
    counts = [(sum(m for m, _ in order), sum(t for _, t in order)) for order in zip(*counts)]
    c_len = counts[0][1]
    if smooth:
        counts = counts[:1] + [(m + 1.0, t + 1.0) for m, t in counts[1:]]
    if any(m == 0 for m, _ in counts):
        return 0.0
    log_p = sum(np.log(m / t) for m, t in counts) / BLEU_ORDER
    bp = 1.0 if c_len >= ref_len else float(np.exp(1.0 - ref_len / c_len))
    return float(bp * np.exp(log_p))


def corpus_bleu(candidates, references) -> float:
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
    return _bleu([clipped_counts(c, r) for c, r in pairs], sum(len(r) for _, r in pairs))


def sentence_bleu_smoothed(candidate, reference) -> float:
    """Add-one smoothed single-sentence score, for inspection dumps only."""
    reference = list(reference)
    return _bleu([clipped_counts(list(candidate), reference)], len(reference), smooth=True)


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
    counts = [clipped_counts(hyp, ref) for hyp, ref in zip(hyps, refs)]
    box_valid = [box_is_valid(p["box"]) for p in predictions]
    per_sample = []
    for s, p, ref, hyp, c, valid in zip(samples, predictions, refs, hyps, counts, box_valid):
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
                "bleu_smoothed": _bleu([c], len(ref), smooth=True),
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
    bleu = _bleu(counts, sum(len(r) for r in refs))
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
