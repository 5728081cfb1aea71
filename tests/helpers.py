"""Shared fixtures-in-code: canonical worked models and random model generators.

The random generators are plain ``random.Random`` based so the big
acceptance loops stay fast and reproducible; property tests drive them
through seeds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
from pathlib import Path

import riskforge
from riskforge import (
    Cause,
    Component,
    COMPONENT_CATEGORIES,
    ControlPlan,
    CONTROL_METHOD_CLASSES,
    DesignModel,
    Domain,
    Effect,
    FailureMode,
    Flow,
    Frequency,
    FUNCTION_CATEGORIES,
    Function,
    MappingEdge,
    Meta,
    REQUIREMENT_CATEGORIES,
    Requirement,
    SEVERITY_CLASSES,
    detection_band,
    occurrence_band,
    severity_band,
)

CAMERA_JSON = Path(__file__).resolve().parent.parent / "sample_models" / "camera.json"

CATEGORIES_BY_DOMAIN = {
    Domain.REQUIREMENT: REQUIREMENT_CATEGORIES,
    Domain.FUNCTION: FUNCTION_CATEGORIES,
    Domain.COMPONENT: COMPONENT_CATEGORIES,
}

# Spans every occurrence band, including both documented gaps.
FREQUENCY_POOL = (
    (1, 2),
    (1, 20),
    (1, 100),
    (1, 125),
    (1, 1000),
    (1, 1250),
    (1, 5000),
    (1, 10000),
    (1, 100000),
    (1, 500000),
    (1, 1000000),
    (1, 20000000),
    (3, 10),
)


def make_camera_model() -> DesignModel:
    """The worked camera-phone chain: one requirement, function, component."""
    return DesignModel(
        meta=Meta(product="Smartphone", version="1.0"),
        requirements=(Requirement("r_photo", "Take photos at any time"),),
        functions=(
            Function(
                "f_exec",
                "execute",
                "camera module",
                inputs=(Flow("user shutter command", "information"),),
                outputs=(Flow("captured image data", "information"),),
            ),
        ),
        components=(
            Component("c_cam", "Camera module", concept="CMOS sensor with protection circuit"),
        ),
        rf=(MappingEdge("r_photo", "f_exec"),),
        fc=(MappingEdge("f_exec", "c_cam"),),
        failure_modes=(
            FailureMode(
                "fm_photo",
                "r_photo",
                "Absence",
                "A user cannot take photos",
                effects=(
                    Effect(
                        "Users return the phone to be fixed",
                        severity_class="ReturnToFix",
                        severity_rank=6,
                    ),
                ),
            ),
            FailureMode(
                "fm_exec",
                "f_exec",
                "Malfunction",
                "Camera module cannot be executed",
                causes=(
                    Cause("Camera module is damaged"),
                    Cause("Lack of power supply"),
                ),
                effects=(Effect("A user cannot take photos"),),
            ),
            FailureMode(
                "fm_damage",
                "c_cam",
                "Damaged",
                "Camera module is damaged",
                causes=(
                    Cause("Lack of R/C components for protection", occurrence_rank=7),
                    Cause("Incorrect circuit design"),
                ),
                effects=(Effect("Camera module cannot be executed", severity_rank=8),),
                control=ControlPlan(
                    "DesignAnalysis",
                    method_text="worst-case circuit analysis",
                    detection_rank=8,
                ),
            ),
        ),
    )


def make_smartphone_model() -> DesignModel:
    """The taxonomy walkthrough: internet requirement, image display, GSM part."""
    return DesignModel(
        meta=Meta(product="Smartphone", version="1.0"),
        requirements=(Requirement("r_net", "have an internet connection at all times"),),
        functions=(Function("f_disp", "display", "images"),),
        components=(Component("c_gsm", "GSM transceiver"),),
        rf=(MappingEdge("r_net", "f_disp"),),
        fc=(MappingEdge("f_disp", "c_gsm"),),
        failure_modes=(
            FailureMode(
                "fm_net_absent",
                "r_net",
                "Absence",
                "the smartphone cannot support an internet connection",
            ),
            FailureMode(
                "fm_net_drops",
                "r_net",
                "Intermittence",
                "users experience frequent interruptions with the internet connection",
            ),
            FailureMode(
                "fm_net_slow",
                "r_net",
                "ImproperOccurrence",
                "connecting to the internet takes a long time",
            ),
            FailureMode(
                "fm_disp_none",
                "f_disp",
                "Malfunction",
                "the smartphone does not display images",
            ),
            FailureMode(
                "fm_disp_noise",
                "f_disp",
                "Interference",
                "the image display has interference",
            ),
            FailureMode(
                "fm_gsm_dead",
                "c_gsm",
                "Damaged",
                "the GSM transceiver is damaged, burned out, or discharged",
            ),
            FailureMode(
                "fm_gsm_weak",
                "c_gsm",
                "LossOfEfficiency",
                "the GSM transceiver struggles to reach the network even when powered",
            ),
            FailureMode(
                "fm_gsm_emi",
                "c_gsm",
                "EMI",
                "the GSM transceiver emits radiation",
            ),
        ),
    )


def rated_effect(rng: random.Random, domain: Domain) -> Effect:
    roll = rng.random()
    if roll < 0.4:
        return Effect("rated effect", severity_rank=rng.randint(1, 10))
    name = rng.choice(SEVERITY_CLASSES[domain])
    if roll < 0.7:
        return Effect("classed effect", severity_class=name)
    band = severity_band(domain, name)
    return Effect(
        "classed and ranked effect",
        severity_class=name,
        severity_rank=rng.randint(band.lo, band.hi),
    )


def rated_cause(rng: random.Random) -> Cause:
    roll = rng.random()
    if roll < 0.4:
        return Cause("rated cause", occurrence_rank=rng.randint(1, 10))
    frequency = Frequency(*rng.choice(FREQUENCY_POOL))
    if roll < 0.7:
        return Cause("frequency cause", frequency=frequency)
    band = occurrence_band(frequency)
    return Cause(
        "frequency and ranked cause",
        occurrence_rank=rng.randint(band.lo, band.hi),
        frequency=frequency,
    )


def random_control(rng: random.Random) -> ControlPlan:
    method_class = rng.choice(CONTROL_METHOD_CLASSES)
    if rng.random() < 0.5:
        return ControlPlan(method_class)
    band = detection_band(method_class)
    return ControlPlan(method_class, detection_rank=rng.randint(band.lo, band.hi))


def _failure_modes_for(
    rng: random.Random,
    element_id: str,
    domain: Domain,
    counter: list[int],
    connected: bool,
) -> list[FailureMode]:
    if domain is Domain.COMPONENT:
        count = rng.randint(1, 2) if connected else rng.randint(0, 2)
    else:
        count = rng.randint(0, 2)
    fms = []
    for _ in range(count):
        counter[0] += 1
        fm_id = f"fm{counter[0]}"
        category = rng.choice(CATEGORIES_BY_DOMAIN[domain])

        effects: list[Effect] = []
        if domain is Domain.REQUIREMENT or connected or rng.random() < 0.6:
            effects.append(rated_effect(rng, domain))
        if rng.random() < 0.3:
            effects.append(Effect("unrated side effect"))
        rng.shuffle(effects)

        causes: list[Cause] = []
        if domain is Domain.COMPONENT or rng.random() < 0.4:
            causes.append(rated_cause(rng))
        if rng.random() < 0.3:
            causes.append(Cause("unrated cause note"))
        rng.shuffle(causes)

        control = None
        if domain is Domain.COMPONENT or rng.random() < 0.2:
            control = random_control(rng)

        fms.append(
            FailureMode(
                fm_id,
                element_id,
                category,
                f"failure of {element_id} ({fm_id})",
                causes=tuple(causes),
                effects=tuple(effects),
                control=control,
            )
        )
    return fms


def random_model(rng: random.Random, connected: bool = False) -> DesignModel:
    """A small random model.

    Plain mode guarantees only the propagation preconditions: requirement
    failure modes carry a rated effect, component failure modes a rated
    cause and a control plan. Connected mode additionally wires every
    requirement to a function, every function to a component, gives every
    component at least one failure mode, and rates every effect list, so
    the result is analysis-ready by construction.
    """
    low = 1 if connected else 0
    m, n, p = rng.randint(low, 4), rng.randint(low, 4), rng.randint(low, 4)
    requirements = tuple(Requirement(f"r{i}", f"requirement number {i}") for i in range(m))
    functions = tuple(Function(f"f{i}", "perform", f"duty {i}") for i in range(n))
    components = tuple(Component(f"c{i}", f"part {i}") for i in range(p))

    rf_pairs = [(r.id, f.id) for r in requirements for f in functions if rng.random() < 0.45]
    fc_pairs = [(f.id, c.id) for f in functions for c in components if rng.random() < 0.45]
    if connected:
        for r in requirements:
            if all(source != r.id for source, _ in rf_pairs):
                rf_pairs.append((r.id, rng.choice(functions).id))
        for f in functions:
            if all(source != f.id for source, _ in fc_pairs):
                fc_pairs.append((f.id, rng.choice(components).id))

    counter = [0]
    failure_modes: list[FailureMode] = []
    for domain, elements in (
        (Domain.REQUIREMENT, requirements),
        (Domain.FUNCTION, functions),
        (Domain.COMPONENT, components),
    ):
        for element in elements:
            failure_modes.extend(_failure_modes_for(rng, element.id, domain, counter, connected))

    return DesignModel(
        meta=Meta(product="random design", version="1"),
        requirements=requirements,
        functions=functions,
        components=components,
        rf=tuple(MappingEdge(s, t) for s, t in sorted(set(rf_pairs))),
        fc=tuple(MappingEdge(s, t) for s, t in sorted(set(fc_pairs))),
        failure_modes=tuple(failure_modes),
    )


def permuted(model: DesignModel, rng: random.Random) -> DesignModel:
    """The same model with every top-level list shuffled."""

    def shuffle(items):
        items = list(items)
        rng.shuffle(items)
        return tuple(items)

    return DesignModel(
        meta=model.meta,
        requirements=shuffle(model.requirements),
        functions=shuffle(model.functions),
        components=shuffle(model.components),
        rf=shuffle(model.rf),
        fc=shuffle(model.fc),
        failure_modes=shuffle(model.failure_modes),
    )


def with_random_extra_edge(model: DesignModel, rng: random.Random) -> DesignModel | None:
    """The model plus one mapping edge not already present, or None."""
    present_rf = {(e.source, e.target) for e in model.rf}
    present_fc = {(e.source, e.target) for e in model.fc}
    candidates = [
        ("rf", r.id, f.id)
        for r in model.requirements
        for f in model.functions
        if (r.id, f.id) not in present_rf
    ] + [
        ("fc", f.id, c.id)
        for f in model.functions
        for c in model.components
        if (f.id, c.id) not in present_fc
    ]
    if not candidates:
        return None
    kind, source, target = rng.choice(candidates)
    edge = MappingEdge(source, target)
    return DesignModel(
        meta=model.meta,
        requirements=model.requirements,
        functions=model.functions,
        components=model.components,
        rf=model.rf + (edge,) if kind == "rf" else model.rf,
        fc=model.fc + (edge,) if kind == "fc" else model.fc,
        failure_modes=model.failure_modes,
    )


# Characters a JSON writer must escape or must leave alone: control
# characters, quote, backslash, DEL, the JS line separators, non-BMP.
PROSE_CHARS = (
    "\x00", "\x01", "\x08", "\t", "\n", "\r", "\x1f", '"', "\\", "/", "\x7f",
    "\u2028", "\u2029", "\U0001f600", "\U00010000", "\uffff", "\u00e9", "\u4e2d",
    " ", "a", "Z", "0", "|", ",", ":", "{", "]",
)


def random_prose(rng: random.Random, nonempty: bool = False) -> str:
    """Up to six characters from PROSE_CHARS; empty only when allowed."""
    text = "".join(rng.choice(PROSE_CHARS) for _ in range(rng.randint(0, 6)))
    return text + "x" if nonempty and not text.strip() else text


def with_random_prose(model: DesignModel, rng: random.Random) -> DesignModel:
    """The same design with every free-text field redrawn from PROSE_CHARS,
    random flows on functions and random optional texts on components and
    control plans. Ids, categories, classes and ratings are unchanged."""

    def prose(nonempty: bool = False) -> str:
        return random_prose(rng, nonempty)

    def flows() -> tuple[Flow, ...]:
        return tuple(Flow(prose(), rng.choice(("material", "energy", "information"))) for _ in range(rng.randint(0, 2)))

    def optional() -> str | None:
        return prose() if rng.random() < 0.5 else None

    def failure_mode(fm: FailureMode) -> FailureMode:
        control = fm.control
        if control is not None:
            control = dataclasses.replace(control, method_text=optional())
        return dataclasses.replace(
            fm,
            description=prose(True),
            effects=tuple(dataclasses.replace(e, text=prose(True)) for e in fm.effects),
            causes=tuple(dataclasses.replace(c, text=prose(True)) for c in fm.causes),
            control=control,
        )

    return dataclasses.replace(
        model,
        meta=Meta(product=prose(), version=prose()),
        requirements=tuple(dataclasses.replace(r, text=prose(True)) for r in model.requirements),
        functions=tuple(
            dataclasses.replace(f, verb=prose(True), noun=prose(True), inputs=flows(), outputs=flows())
            for f in model.functions
        ),
        components=tuple(dataclasses.replace(c, name=prose(True), concept=optional()) for c in model.components),
        failure_modes=tuple(failure_mode(fm) for fm in model.failure_modes),
    )


def child_env() -> dict[str, str]:
    """This environment for a child ``python``, with the riskforge these tests import first on its path."""
    source = str(Path(riskforge.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": source if not path else os.pathsep.join((source, path))}


def camera_cut_off_from_its_requirement() -> str:
    """camera.json without the effects of f_exec's failure modes and without the rf edges into
    f_exec: r_photo reaches no component, and nothing gives f_exec a severity."""
    data = json.loads(CAMERA_JSON.read_text(encoding="utf-8"))
    for fm in data["failure_modes"]:
        if fm["element"] == "f_exec":
            del fm["effects"]
    data["rf"] = [edge for edge in data["rf"] if edge[1] != "f_exec"]
    return json.dumps(data, indent=2)
