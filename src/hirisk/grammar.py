"""Caption grammar for the synthetic benchmark.

Captions follow one fixed template; the slot values and the suggestion
paraphrase are all determined by the scene, so the caption is a function of
what is visible. The tokenizer is shared by dataset building, the decoder
LM, and the caption parser, so token positions are stable: the answer span
(color + class words) always sits at token positions [3, 5).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

INSTRUCTION_PROMPT = (
    "Which object is at the highest risk? Then predict the motions and "
    "suggestions for the ego-car"
)
LOCALIZATION_PROMPT = "Where are the vehicles, traffic lights/cones, and people?"
LOCATION_TEMPLATE = "The location is at"

PAD, EOS, UNK = "<pad>", "<eos>", "<unk>"

CLASSES = ("car", "truck", "pedestrian", "cone", "light")

CLASS_COLORS = {
    "car": ("red", "blue", "gray", "green"),
    "truck": ("blue", "yellow", "gray", "red"),
    "pedestrian": ("red", "blue", "green"),
    "cone": ("orange", "yellow"),
    "light": ("red", "green", "yellow"),
}

COLORS = ("blue", "gray", "green", "orange", "red", "yellow")

MOTIONS = {
    "into_band": "moving into the ego lane",
    "cross_left": "crossing to the left",
    "cross_right": "crossing to the right",
}

POSITIONS = {
    "in_band": "now in the ego lane",
    "left": "now on the left side",
    "right": "now on the right side",
}

INTENTIONS = {
    "in_band": "slow down",
    "left": "turn right",
    "right": "turn left",
}

CLASS_SUGGESTION = {
    "car": "distance",
    "truck": "distance",
    "pedestrian": "yield",
    "cone": "avoid",
    "light": "wait",
}

SUGGESTIONS = {
    "distance": (
        "Keep a safe distance from it.",
        "Maintain a safe gap behind it.",
        "Leave extra room ahead.",
        "Do not follow it too closely.",
        "Back off and keep clear.",
        "Hold a generous following distance.",
        "Stay well behind it.",
        "Give it plenty of space.",
        "Increase the gap to it.",
        "Avoid tailgating it.",
        "Keep clear of its path.",
        "Allow a wide buffer around it.",
        "Stay back until it passes.",
        "Keep space in case it brakes.",
        "Watch it and keep your distance.",
        "Drop back to a safe gap.",
        "Leave room for it to maneuver.",
        "Keep a cautious distance.",
        "Do not crowd it.",
        "Ease off and stay behind it.",
    ),
    "yield": (
        "Yield to them.",
        "Stop and let them cross.",
        "Give way until they pass.",
        "Wait for them to clear the road.",
        "Let them go first.",
        "Brake gently and yield.",
        "Hold back while they cross.",
        "Allow them to finish crossing.",
        "Stay stopped until they are clear.",
        "Give them the right of way.",
        "Pause and let them walk on.",
        "Do not press forward while they cross.",
        "Yield until the walkway is clear.",
        "Let them step away first.",
        "Remain patient while they cross.",
        "Make room for them to pass.",
        "Come to a stop for them.",
        "Defer to them at the crossing.",
        "Hold position until they pass.",
        "Slow up and yield to them.",
    ),
    "avoid": (
        "Steer around it carefully.",
        "Move over to avoid it.",
        "Go around it with care.",
        "Keep wide of it.",
        "Adjust the line to miss it.",
        "Pass it with extra clearance.",
        "Shift away from it.",
        "Avoid driving over it.",
        "Swing safely around it.",
        "Leave it untouched and pass wide.",
        "Change the path to clear it.",
        "Skirt around the obstacle.",
        "Keep the wheels clear of it.",
        "Edge around it slowly.",
        "Take a wider line past it.",
        "Drift over and miss it.",
        "Stay off that patch of road.",
        "Bypass it cautiously.",
        "Track around it smoothly.",
        "Give it a wide berth.",
    ),
    "wait": (
        "Wait for the signal to change.",
        "Hold at the light.",
        "Stay stopped until it turns.",
        "Remain in place for the signal.",
        "Wait until the light allows.",
        "Do not proceed against the signal.",
        "Pause for the light to change.",
        "Keep waiting at the signal.",
        "Stand by until it switches.",
        "Hold position at the intersection.",
        "Stay put until given the signal.",
        "Wait out the light.",
        "Remain halted at the signal.",
        "Do not move until it changes.",
        "Sit tight for the green.",
        "Hold until the signal clears.",
        "Obey the light and wait.",
        "Keep the brakes on for the signal.",
        "Watch the light and wait.",
        "Delay until the signal permits.",
    ),
}

ANSWER_SPAN = (3, 5)


def suggestion_index(obj_class: str, motion_key: str, position_key: str) -> int:
    """Deterministic paraphrase choice for a scene.

    Keeps the caption a pure function of the scene, so caption entropy
    measures perception, not a coin flip the model could never predict. Each
    of the three scenarios (`scenes.SCENARIOS`) has one (motion, position)
    pair, so a class uses 3 of its bank's 20 paraphrases: 3 each in yield,
    avoid and wait, and 5 in distance, which car and truck share. The 15
    (class, scenario) pairs reach 14 of the 80 paraphrases.
    """
    c = CLASSES.index(obj_class)
    m = sorted(MOTIONS).index(motion_key)
    p = sorted(POSITIONS).index(position_key)
    return (5 * c + 3 * m + p) % 20

_TOKEN_RE = re.compile(r"[a-z]+|\d|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Lowercase word / single digit / punctuation tokens."""
    return _TOKEN_RE.findall(text.lower())


def make_caption(color: str, obj_class: str, motion_key: str, position_key: str,
                 suggestion_idx: int) -> str:
    suggestion = SUGGESTIONS[CLASS_SUGGESTION[obj_class]][suggestion_idx]
    return (
        f"There is a {color} {obj_class}, {MOTIONS[motion_key]}, "
        f"{POSITIONS[position_key]}. The ego car intends to "
        f"{INTENTIONS[position_key]}. {suggestion}"
    )


def format_location(box) -> str:
    x1, y1, x2, y2 = box
    return f"{LOCATION_TEMPLATE} [{x1:.3f}, {y1:.3f}, {x2:.3f}, {y2:.3f}]."


class Vocabulary:
    """Fixed token inventory; ids are stable across runs."""

    def __init__(self, tokens: list[str]):
        self.id_to_token = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        self.pad_id = self.token_to_id[PAD]
        self.eos_id = self.token_to_id[EOS]
        self.unk_id = self.token_to_id[UNK]

    def __len__(self):
        return len(self.id_to_token)

    def encode(self, text: str) -> list[int]:
        return [self.token_to_id.get(t, self.unk_id) for t in tokenize(text)]

    def decode(self, ids) -> list[str]:
        out = []
        for i in ids:
            i = int(i)
            if i == self.eos_id:
                break
            if i == self.pad_id:
                continue
            out.append(self.id_to_token[i])
        return out


def build_vocab() -> Vocabulary:
    """Collect every word the grammar, prompts, or coordinates can produce."""
    texts = [INSTRUCTION_PROMPT, LOCALIZATION_PROMPT, LOCATION_TEMPLATE]
    texts += [f"[{0:.3f}, {0:.3f}, {0:.3f}, {0:.3f}]."]
    texts += list(COLORS) + list(CLASSES)
    texts += list(MOTIONS.values()) + list(POSITIONS.values()) + list(INTENTIONS.values())
    for bank in SUGGESTIONS.values():
        texts += list(bank)
    texts += [make_caption("red", "car", "into_band", "in_band", 0)]
    texts += ["no box"]
    seen = set()
    for t in texts:
        seen.update(tokenize(t))
    seen.update(str(d) for d in range(10))
    return Vocabulary([PAD, EOS, UNK] + sorted(seen))


@dataclass
class ParsedCaption:
    color: str | None = None
    obj_class: str | None = None
    motion: str | None = None
    position: str | None = None
    intention: str | None = None
    suggestion: str | None = None
    box: tuple[float, float, float, float] | None = None


_BOX_RE = re.compile(
    r"the location is at \[ ?([\d. ]+?) , ([\d. ]+?) , ([\d. ]+?) , ([\d. ]+?) \]"
)


def _parse_number(chunk: str) -> float | None:
    digits = chunk.replace(" ", "")
    try:
        val = float(digits)
    except ValueError:
        return None
    return val


def parse_caption(tokens: list[str]) -> ParsedCaption:
    """Best-effort structural parse; missing pieces stay None.

    Accepts raw token lists as emitted by the decoder (spaces around
    punctuation); never raises on malformed input.
    """
    out = ParsedCaption()
    text = " ".join(tokens)
    m = _BOX_RE.search(text)
    if m:
        vals = [_parse_number(g) for g in m.groups()]
        if all(v is not None for v in vals):
            out.box = tuple(vals)
        text = text[: m.start()].rstrip()
        tokens = text.split()
    if len(tokens) >= 5 and tokens[:3] == ["there", "is", "a"]:
        if tokens[3] in COLORS:
            out.color = tokens[3]
        if tokens[4] in CLASSES:
            out.obj_class = tokens[4]
    for key, phrase in MOTIONS.items():
        if phrase in text:
            out.motion = key
            break
    for key, phrase in POSITIONS.items():
        if phrase in text:
            out.position = key
            break
    for key, phrase in INTENTIONS.items():
        if f"intends to {phrase}" in text:
            out.intention = key
            break
    m2 = re.search(r"intends to (?:slow down|turn left|turn right) \. (.+)$", text)
    if m2:
        out.suggestion = m2.group(1).strip()
    return out
