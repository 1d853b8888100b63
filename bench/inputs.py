"""Parsing and validating a plan's theories and stories: the timed set-up.

Kept free of imports so that loading it costs the set-up clock nothing.
"""


def load_inputs(cp, plan: dict) -> tuple[dict, dict]:
    theories = {
        tid: cp.validate_theory(cp.parse_theory(text).theory)
        for tid, text in plan["theories"].items()
    }
    stories = {
        sid: cp.parse_story(story["text"], theories[story["theory"]])
        for sid, story in plan["stories"].items()
    }
    return theories, stories
