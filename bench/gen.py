"""Seeded model generator for the riskforge benchmark.

Standard library only, and it never imports ``riskforge``: a change to
the program cannot change the benchmark's inputs. Every document is
canonical JSON (the key order of the README schema, two-space indent,
``ensure_ascii=False``, trailing LF), so ``serialize_model`` must give
the input bytes back.

Three shapes:

* ``bulk_model``: uniform low degree, every optional schema field present
  at a seeded rate, every failure mode rateable (analysis-ready).
* ``star_model``: one requirement mapped onto ``degree`` functions, which
  fan into ``STAR_COMPONENTS`` components.
* ``invalid_documents``: one analysis-ready base document, and variants
  of it that each carry exactly one seeded analyst error, with the
  finding code, location and exit code that error must produce.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

REQUIREMENT = "requirement"
FUNCTION = "function"
COMPONENT = "component"

CATEGORIES = {
    REQUIREMENT: ("Absence", "Incompleteness", "Intermittence", "Incorrectness", "ImproperOccurrence"),
    FUNCTION: ("Malfunction", "Interference", "Decayed", "Incompleteness", "Incorrectness"),
    COMPONENT: ("Damaged", "LossOfEfficiency", "EMI", "NonCompatible"),
}

# README rating tables, in band order (worst band first).
SEVERITY_CLASSES = {
    REQUIREMENT: ("SafetyIssue", "ChooseCompetitor", "ReturnToFix", "Tolerate", "Invisible"),
    FUNCTION: ("SafetyIssue", "DifficultToOperate", "UnderStandardPerformance", "IsolatedDefect", "Invisible"),
    COMPONENT: ("SafetyIssue", "PrimaryFunctionEffect", "SecondaryFunctionEffect", "NonFunctionalEffect", "Invisible"),
}
CONTROL_METHOD_CLASSES = (
    "NoApparentMethod",
    "DesignAnalysis",
    "StandardDesignDocuments",
    "PassFailOrReliabilityTest",
    "RealLifeProductTest",
)
BAND_RANKS = ((9, 10), (7, 8), (5, 6), (2, 3, 4), (1,))

# Frequencies per occurrence band, including values in both documented
# gaps (1 in 5000 lies in the 5-6 gap, 1 in 500000 in the 2-4 gap).
BAND_FREQUENCIES = (
    ((1, 2), (1, 20), (3, 10)),
    ((1, 100), (1, 125)),
    ((1, 1000), (1, 1250), (1, 5000)),
    ((1, 10000), (1, 100000), (1, 500000)),
    ((1, 1000000), (1, 20000000)),
)

FLOW_KINDS = ("material", "energy", "information")

#: Out-degree of every requirement on ``rf`` and every function on ``fc``
#: in a bulk model.
OUT_DEGREE = 4
#: Components a star model's functions fan into.
STAR_COMPONENTS = 16

_WORDS = (
    "battery", "sensor", "lens", "shutter", "housing", "signal", "charge",
    "display", "frame", "image", "module", "seal", "cable", "antenna",
    "heat", "power", "user", "data", "motor", "switch", "coating", "fuse",
)
# Prose that exercises escaping in every artifact format: commas and quotes
# for CSV, pipes for Markdown, non-ASCII and backslashes for JSON.
_ODD_WORDS = ("µ-level", "Größe", "naïve", "a, b", 'the "seal"', "in|out", "C:\\path", "température")
_VERBS = ("execute", "store", "convert", "transmit", "protect", "regulate", "display", "sense")


@dataclass(frozen=True)
class Spec:
    """What a generated document should contain; recorded with every run."""

    shape: str
    seed: int
    requirements: int
    functions: int
    components: int
    failure_modes: int
    rf_edges: int
    fc_edges: int


class _Gen:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def prose(self, words: int) -> str:
        rng = self.rng
        parts = [rng.choice(_WORDS) for _ in range(words)]
        if rng.random() < 0.1:
            parts[rng.randrange(words)] = rng.choice(_ODD_WORDS)
        text = " ".join(parts)
        return text[0].upper() + text[1:]

    def flows(self) -> list[dict]:
        return [
            {"description": self.prose(3), "kind": self.rng.choice(FLOW_KINDS)}
            for _ in range(self.rng.randint(1, 2))
        ]

    def function(self, fid: str) -> dict:
        rng = self.rng
        data = {"id": fid, "verb": rng.choice(_VERBS), "noun": self.prose(2).lower()}
        if rng.random() < 0.15:
            data["inputs"] = self.flows()
        if rng.random() < 0.15:
            data["outputs"] = self.flows()
        return data

    def component(self, cid: str) -> dict:
        data = {"id": cid, "name": self.prose(2)}
        if self.rng.random() < 0.4:
            data["concept"] = self.prose(5)
        return data

    def effect(self, domain: str, rated: bool) -> dict:
        rng = self.rng
        data: dict = {"text": self.prose(3)}
        if not rated:
            return data
        band = rng.randrange(5)
        mode = rng.random()
        if mode < 0.6:
            data["severity_class"] = SEVERITY_CLASSES[domain][band]
        if mode >= 0.3:
            data["severity_rank"] = rng.choice(BAND_RANKS[band])
        return data

    def cause(self, rated: bool) -> dict:
        rng = self.rng
        data: dict = {"text": self.prose(3)}
        if not rated:
            return data
        band = rng.randrange(5)
        mode = rng.random()
        if mode >= 0.3:
            data["occurrence_rank"] = rng.choice(BAND_RANKS[band])
        if mode < 0.6:
            data["frequency"] = list(rng.choice(BAND_FREQUENCIES[band]))
        return data

    def control(self) -> dict:
        rng = self.rng
        band = rng.randrange(5)
        data: dict = {"method_class": CONTROL_METHOD_CLASSES[band]}
        if rng.random() < 0.5:
            data["method_text"] = self.prose(4)
        if rng.random() < 0.6:
            data["detection_rank"] = rng.choice(BAND_RANKS[band])
        return data

    def failure_mode(self, fm_id: str, element: str, domain: str) -> dict:
        """A failure mode rateable at the analysis-ready level.

        Every mode gets a rated first effect; component modes also get a
        rated first cause and a control plan, which is what analysis-ready
        validation requires of them. Requirement and function modes take
        occurrence (and, without a control plan, detection) through the
        mappings, so their causes and controls are optional.
        """
        rng = self.rng
        data: dict = {
            "id": fm_id,
            "element": element,
            "category": rng.choice(CATEGORIES[domain]),
            "description": self.prose(4),
        }
        data["effects"] = [self.effect(domain, rated=True)] + [
            self.effect(domain, rated=rng.random() < 0.5) for _ in range(rng.random() < 0.3)
        ]
        if domain == COMPONENT:
            data["causes"] = [self.cause(rated=True)] + [
                self.cause(rated=rng.random() < 0.5) for _ in range(rng.random() < 0.3)
            ]
        elif rng.random() < 0.5:
            data["causes"] = [self.cause(rated=rng.random() < 0.5)]
        if domain == COMPONENT or rng.random() < 0.5:
            data["control"] = self.control()
        return data


def _document(product: str, requirements, functions, components, rf, fc, failure_modes) -> dict:
    return {
        "meta": {"product": product, "version": "1.0"},
        "requirements": requirements,
        "functions": functions,
        "components": components,
        "rf": rf,
        "fc": fc,
        "failure_modes": failure_modes,
    }


def _spec(shape: str, seed: int, data: dict) -> Spec:
    return Spec(
        shape=shape,
        seed=seed,
        requirements=len(data["requirements"]),
        functions=len(data["functions"]),
        components=len(data["components"]),
        failure_modes=len(data["failure_modes"]),
        rf_edges=len(data["rf"]),
        fc_edges=len(data["fc"]),
    )


def canonical(data: dict) -> str:
    """The canonical text of a model document, as ``serialize_model`` writes it."""
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


def bulk_model(seed: int, n: int = 2000) -> tuple[dict, Spec]:
    """``n`` elements per class, out-degree ``OUT_DEGREE`` on rf and fc.

    Every component owns at least one failure mode, so every element
    reaches an occurrence and a detection source; the remaining modes
    (3.5 per class element in total) land on random elements.
    """
    g = _Gen(seed)
    rng = g.rng
    total_fms = (7 * n) // 2
    rids = [f"r_{i:05d}" for i in range(n)]
    fids = [f"f_{i:05d}" for i in range(n)]
    cids = [f"c_{i:05d}" for i in range(n)]
    requirements = [{"id": rid, "text": g.prose(5)} for rid in rids]
    functions = [g.function(fid) for fid in fids]
    components = [g.component(cid) for cid in cids]
    rf = [[rid, fid] for rid in rids for fid in rng.sample(fids, OUT_DEGREE)]
    fc = [[fid, cid] for fid in fids for cid in rng.sample(cids, OUT_DEGREE)]

    owners = [(cid, COMPONENT) for cid in cids]
    pool = [(rid, REQUIREMENT) for rid in rids] + [(fid, FUNCTION) for fid in fids] + owners
    owners += [rng.choice(pool) for _ in range(total_fms - len(owners))]
    rng.shuffle(owners)
    fms = [g.failure_mode(f"fm_{i:05d}", element, domain) for i, (element, domain) in enumerate(owners)]
    data = _document("Bulk design", requirements, functions, components, rf, fc, fms)
    return data, _spec("bulk", seed, data)


def star_model(seed: int, degree: int = 20000) -> tuple[dict, Spec]:
    """One requirement mapped onto ``degree`` functions; function i maps
    onto component ``i % STAR_COMPONENTS``, so each component has
    in-degree ``degree / STAR_COMPONENTS``.
    """
    g = _Gen(seed)
    fids = [f"f_{i:05d}" for i in range(degree)]
    cids = [f"c_{i:05d}" for i in range(STAR_COMPONENTS)]
    requirements = [{"id": "r_hub", "text": g.prose(6)}]
    functions = [{"id": fid, "verb": g.rng.choice(_VERBS), "noun": g.rng.choice(_WORDS)} for fid in fids]
    comps = [g.component(cid) for cid in cids]
    rf = [["r_hub", fid] for fid in fids]
    fc = [[fid, cids[i % STAR_COMPONENTS]] for i, fid in enumerate(fids)]
    owners = [("r_hub", REQUIREMENT)] * 2 + [(cid, COMPONENT) for cid in cids for _ in range(3)]
    owners += [(fid, FUNCTION) for fid in fids[::50]]
    fms = [g.failure_mode(f"fm_{i:05d}", element, domain) for i, (element, domain) in enumerate(owners)]
    data = _document("Star design", requirements, functions, comps, rf, fc, fms)
    return data, _spec("star", seed, data)


# ---------------------------------------------------------------------------
# Invalid documents: one seeded analyst error each.

ERROR_KINDS = (
    "syntax",
    "duplicate_key",
    "unknown_key",
    "wrong_type",
    "dangling_edge",
    "category",
    "missing_rating",
)

#: Finding code and exit code each kind must produce under
#: ``riskforge validate --analysis-ready``. Only the missing rating
#: survives parsing; it is a validation finding (exit 1), the rest are
#: parse errors (exit 2).
EXPECTED = {
    "syntax": ("Syntax", 2),
    "duplicate_key": ("DuplicateKey", 2),
    "unknown_key": ("UnknownKey", 2),
    "wrong_type": ("Type", 2),
    "dangling_edge": ("DanglingReference", 2),
    "category": ("CategoryDomainMismatch", 2),
    "missing_rating": ("MissingControlPlan", 1),
}

_SENTINEL = "@@inject@@"


@dataclass(frozen=True)
class InvalidDoc:
    """One invalid document and what riskforge must report for it.

    ``line`` and ``column`` locate the injected error (columns count
    characters, as riskforge's do). ``path`` is the model path of the
    finding; parse errors are reported by line and column, validation
    findings by path.
    """

    kind: str
    text: str
    code: str
    exit_code: int
    line: int
    column: int
    path: str


def line_column(text: str, offset: int) -> tuple[int, int]:
    line = text.count("\n", 0, offset) + 1
    return line, offset - (text.rfind("\n", 0, offset) + 1) + 1


def _splice(data: dict, holder, key, replacement: str) -> tuple[str, int]:
    """Dump ``data`` with ``holder[key]`` replaced by raw ``replacement`` text.

    The value is swapped for a sentinel string, the document dumped, and
    the sentinel's JSON token replaced by the raw text, so the injected
    bytes sit at a known offset. ``holder`` is restored afterwards.
    """
    original = holder[key]
    holder[key] = _SENTINEL
    try:
        text = canonical(data)
    finally:
        holder[key] = original
    token = json.dumps(_SENTINEL)
    offset = text.index(token)
    return text[:offset] + replacement + text[offset + len(token) :], offset


def _splice_key(data: dict, holder: dict, key_text: str, value) -> tuple[str, int]:
    """Dump ``data`` with one extra ``key_text: value`` entry at the end of ``holder``."""
    holder[_SENTINEL] = value
    try:
        text = canonical(data)
    finally:
        del holder[_SENTINEL]
    token = json.dumps(_SENTINEL)
    offset = text.index(token)
    return text[:offset] + json.dumps(key_text) + text[offset + len(token) :], offset


def inject(data: dict, kind: str, start: float) -> InvalidDoc:
    """Inject one error of ``kind`` at the first eligible place from ``start``.

    ``start`` is a share (0 to 1) of the relevant list, so a caller can
    spread errors over the document. ``data`` is left unchanged.
    """
    code, exit_code = EXPECTED[kind]
    fms = data["failure_modes"]
    domains = {r["id"]: REQUIREMENT for r in data["requirements"]}
    domains.update((f["id"], FUNCTION) for f in data["functions"])
    domains.update((c["id"], COMPONENT) for c in data["components"])

    def pick(items: list, eligible) -> int:
        first = int(start * len(items))
        for index in list(range(first, len(items))) + list(range(first)):
            if eligible(items[index]):
                return index
        raise ValueError(f"no place to inject {kind}")

    if kind == "syntax":
        # A text value written without its quotes.
        i = pick(data["requirements"], lambda r: True)
        req = data["requirements"][i]
        text, offset = _splice(data, req, "text", req["text"])
        path = f"requirements[{i}].text"
    elif kind == "duplicate_key":
        i = pick(fms, lambda fm: True)
        text, offset = _splice_key(data, fms[i], "id", fms[i]["id"])
        path = f"failure_modes[{i}]"
    elif kind == "unknown_key":
        i = pick(data["components"], lambda c: True)
        text, offset = _splice_key(data, data["components"][i], "colour", "red")
        path = f"components[{i}]"
    elif kind == "wrong_type":
        i = pick(fms, lambda fm: any("severity_rank" in e for e in fm["effects"]))
        j = next(j for j, e in enumerate(fms[i]["effects"]) if "severity_rank" in e)
        effect = fms[i]["effects"][j]
        text, offset = _splice(data, effect, "severity_rank", json.dumps(str(effect["severity_rank"])))
        path = f"failure_modes[{i}].effects[{j}].severity_rank"
    elif kind == "dangling_edge":
        i = pick(data["rf"], lambda e: True)
        text, offset = _splice(data, data["rf"], i, json.dumps([data["rf"][i][0], "f_dangling"]))
        # The finding points at the target id, one element into the pair.
        offset = text.index('"f_dangling"', offset)
        path = f"rf[{i}][1]"
    elif kind == "category":
        i = pick(fms, lambda fm: domains[fm["element"]] == COMPONENT)
        text, offset = _splice(data, fms[i], "category", json.dumps(CATEGORIES[FUNCTION][0]))
        path = f"failure_modes[{i}].category"
    elif kind == "missing_rating":
        # Drop one component mode's control plan, on a component with
        # other modes, so no other element loses its detection source.
        per_element: dict[str, int] = {}
        for fm in fms:
            per_element[fm["element"]] = per_element.get(fm["element"], 0) + 1
        i = pick(
            fms,
            lambda fm: domains[fm["element"]] == COMPONENT and per_element[fm["element"]] > 1,
        )
        control = fms[i].pop("control")
        try:
            text = canonical(data)
        finally:
            fms[i]["control"] = control
        offset = text.rfind("{", 0, text.index(f'"id": "{fms[i]["id"]}"'))
        path = f"failure_modes[{i}]"
    else:
        raise ValueError(f"unknown error kind {kind!r}")
    line, column = line_column(text, offset)
    return InvalidDoc(kind, text, code, exit_code, line, column, path)


#: Variants of every error kind in the invalid stream.
PER_KIND = 4


def invalid_documents(seed: int, n: int = 150) -> tuple[dict, Spec, list[InvalidDoc]]:
    """A ~400 KB base document and ``PER_KIND`` variants of every error kind.

    Variant ``q`` of a kind puts its error in the ``q``-th of ``PER_KIND``
    equal slices of the relevant list, and within it at a seeded place;
    syntax errors stop the parse early, so spreading them keeps every
    seed's mix of job sizes alike. Variants are interleaved by kind.
    """
    data, spec = bulk_model(seed, n=n)
    rng = random.Random(seed * 7919 + 1)
    docs = [
        inject(data, kind, (q + rng.random()) / PER_KIND)
        for q in range(PER_KIND)
        for kind in ERROR_KINDS
    ]
    return data, replace(spec, shape="invalid"), docs

