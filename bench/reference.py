"""Independent reference for the five riskforge artifacts.

A linear reimplementation of the README rules over the generator's plain
model data: rating bands, max-propagation (severity forward, occurrence
and detection backward), the row fallback to the owning element's
propagated value, the total sort key and dense rank positions. It never
imports ``riskforge`` (``oracle_propagate`` is program code, so it cannot
check the program), and it yields the payloads of the JSON artifacts, so a
job's output is checked field by field.
"""

from __future__ import annotations

from fractions import Fraction

from gen import COMPONENT, CONTROL_METHOD_CLASSES, FUNCTION, REQUIREMENT, SEVERITY_CLASSES

BAND_HI = (10, 8, 6, 4, 1)


def occurrence_band_hi(numerator: int, denominator: int) -> int:
    value = Fraction(numerator, denominator)
    if value >= Fraction(1, 20):
        return 10
    if value >= Fraction(1, 125):
        return 8
    if value > Fraction(1, 10000):
        return 6
    if value > Fraction(1, 1000000):
        return 4
    return 1


def fm_severity(fm: dict, domain: str) -> int | None:
    ranks = []
    for effect in fm.get("effects", ()):
        if "severity_rank" in effect:
            ranks.append(effect["severity_rank"])
        elif "severity_class" in effect:
            ranks.append(BAND_HI[SEVERITY_CLASSES[domain].index(effect["severity_class"])])
    return max(ranks, default=None)


def fm_occurrence(fm: dict) -> int | None:
    ranks = []
    for cause in fm.get("causes", ()):
        if "occurrence_rank" in cause:
            ranks.append(cause["occurrence_rank"])
        elif "frequency" in cause:
            ranks.append(occurrence_band_hi(*cause["frequency"]))
    return max(ranks, default=None)


def fm_detection(fm: dict) -> int | None:
    control = fm.get("control")
    if control is None:
        return None
    if "detection_rank" in control:
        return control["detection_rank"]
    return BAND_HI[CONTROL_METHOD_CLASSES.index(control["method_class"])]


def _merge(target: dict[str, int], key: str, value: int | None) -> None:
    if value is not None and (key not in target or value > target[key]):
        target[key] = value


def expected_artifacts(data: dict) -> dict[str, dict]:
    """The JSON artifact payloads ``run_procedure`` must produce, by stem."""
    domain_of: dict[str, str] = {}
    text_of: dict[str, str] = {}
    for r in data["requirements"]:
        domain_of[r["id"]], text_of[r["id"]] = REQUIREMENT, r["text"]
    for f in data["functions"]:
        domain_of[f["id"]], text_of[f["id"]] = FUNCTION, f"{f['verb']} {f['noun']}"
    for c in data["components"]:
        domain_of[c["id"]], text_of[c["id"]] = COMPONENT, c["name"]

    own = {
        fm["id"]: (
            fm_severity(fm, domain_of[fm["element"]]),
            fm_occurrence(fm),
            fm_detection(fm),
        )
        for fm in data["failure_modes"]
    }

    # Each stratum reads only the one before it, so one pass per stratum
    # in mapping order is enough; every aggregation is a maximum.
    severity: dict[str, int] = {}
    occurrence: dict[str, int] = {}
    detection: dict[str, int] = {}
    for fm in data["failure_modes"]:
        s, o, d = own[fm["id"]]
        _merge(severity, fm["element"], s)
        if domain_of[fm["element"]] == COMPONENT:
            _merge(occurrence, fm["element"], o)
            _merge(detection, fm["element"], d)
    for source, target in data["rf"]:
        _merge(severity, target, severity.get(source))
    for source, target in data["fc"]:
        _merge(severity, target, severity.get(source))
    for source, target in data["fc"]:
        _merge(occurrence, source, occurrence.get(target))
        _merge(detection, source, detection.get(target))
    for source, target in data["rf"]:
        _merge(occurrence, source, occurrence.get(target))
        _merge(detection, source, detection.get(target))

    rows = []
    for fm in data["failure_modes"]:
        element = fm["element"]
        s, o, d = own[fm["id"]]
        s = s if s is not None else severity[element]
        o = o if domain_of[element] == COMPONENT else occurrence[element]
        d = d if d is not None else detection[element]
        rows.append((-(s * o * d), -s, -o, -d, element, fm["id"], fm, s, o, d))
    rows.sort(key=lambda row: row[:6])

    worksheets: dict[str, list[dict]] = {REQUIREMENT: [], FUNCTION: [], COMPONENT: []}
    for position, (_, _, _, _, element, fm_id, fm, s, o, d) in enumerate(rows, start=1):
        control = fm.get("control")
        worksheets[domain_of[element]].append(
            {
                "element_id": element,
                "element_text": text_of[element],
                "fm_id": fm_id,
                "category": fm["category"],
                "description": fm["description"],
                "effects": "; ".join(e["text"] for e in fm.get("effects", ())),
                "severity": s,
                "causes": "; ".join(c["text"] for c in fm.get("causes", ())),
                "occurrence": o,
                "control": "-" if control is None else control.get("method_text") or control["method_class"],
                "detection": d,
                "rpn": s * o * d,
                "rank": position,
            }
        )

    def priority(domain: str, elements: list[dict]) -> dict:
        ids = [e["id"] for e in elements]
        rated = sorted((i for i in ids if i in severity), key=lambda i: (-severity[i], i))
        unrated = sorted(i for i in ids if i not in severity)
        return {
            "domain": domain,
            "rows": [
                {"element_id": i, "element_text": text_of[i], "severity": severity.get(i), "priority": p}
                for p, i in enumerate(rated + unrated, start=1)
            ],
        }

    return {
        "requirement_priority": priority(REQUIREMENT, data["requirements"]),
        "function_priority": priority(FUNCTION, data["functions"]),
        "fmea_component": {"domain": COMPONENT, "rows": worksheets[COMPONENT]},
        "fmea_function": {"domain": FUNCTION, "rows": worksheets[FUNCTION]},
        "fmea_requirement": {"domain": REQUIREMENT, "rows": worksheets[REQUIREMENT]},
    }


def compare(expected: dict, actual: dict) -> list[str]:
    """Human-readable differences between expected and actual payloads (first few per artifact)."""
    problems = []
    for stem, want in expected.items():
        got = actual.get(stem)
        if got is None:
            problems.append(f"{stem}: missing")
            continue
        if got.get("domain") != want["domain"] or len(got.get("rows", ())) != len(want["rows"]):
            problems.append(f"{stem}: domain or row count differs ({len(got.get('rows', ()))} vs {len(want['rows'])})")
            continue
        bad = [i for i, (g, w) in enumerate(zip(got["rows"], want["rows"])) if g != w]
        for i in bad[:3]:
            problems.append(f"{stem} row {i + 1}: got {got['rows'][i]}, want {want['rows'][i]}")
        if len(bad) > 3:
            problems.append(f"{stem}: {len(bad) - 3} more rows differ")
    return problems
