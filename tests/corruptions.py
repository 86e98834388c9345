"""Single-field corruptions of a valid export.

Each function corrupts one field of an export document in place and
returns the JSON path that a rejection must name. The first eight are the
benchmark's corrupted ``messy`` exports, written again here so that the
tests import nothing from ``bench/``. The rest are faults that once
rendered a report from garbage or ended in an internal error.
"""


def _first_comp(doc):
    return doc["linearity"]["order"][0]


def l3_cell_string(doc):
    doc["transitions"]["l3"]["counts"][0][1] = "3"
    return "transitions.l3.counts[0][1]"


def per_session_no_share(doc):
    del doc["effort"]["per_session"][0]["share"]
    return "effort.per_session[0]"


def sus_string(doc):
    user = sorted(doc["descriptive"]["sus"])[0]
    doc["descriptive"]["sus"][user] = "high"
    return f"descriptive.sus.{user}"


def session_row_not_object(doc):
    doc["descriptive"]["sessions"][0] = 7
    return "descriptive.sessions[0]"


def share_box_no_min(doc):
    comp = _first_comp(doc)
    del doc["effort"]["share_box"][comp]["min"]
    return f"effort.share_box.{comp}"


def idle_cap_string(doc):
    doc["options"]["idle_cap_ms"] = "x"
    return "options.idle_cap_ms"


def totals_string(doc):
    comp = _first_comp(doc)
    doc["effort"]["totals_ms"][comp] = "12"
    return f"effort.totals_ms.{comp}"


def pooled_no_value(doc):
    del doc["linearity"]["pooled"]["value"]
    return "linearity.pooled"


def l3_cell_float(doc):
    doc["transitions"]["l3"]["counts"][0][1] = 1.5
    return "transitions.l3.counts[0][1]"


def l2_cell_bool(doc):
    doc["transitions"]["l2"]["counts"][0][0] = True
    return "transitions.l2.counts[0][0]"


def per_session_row_short(doc):
    doc["effort"]["per_session"].pop()
    return "effort.per_session"


def share_above_one(doc):
    comp = _first_comp(doc)
    doc["effort"]["per_session"][0]["share"][comp] = 2.0
    return f"effort.per_session[0].share.{comp}"


def share_missing_component(doc):
    comp = _first_comp(doc)
    del doc["effort"]["per_session"][0]["share"][comp]
    return "effort.per_session[0].share"


def share_total_above_one(doc):
    comp = _first_comp(doc)
    doc["effort"]["share_totals"][comp] = 2.0
    return f"effort.share_totals.{comp}"


def completion_string(doc):
    doc["descriptive"]["sessions"][0]["completion_ms"] = "x"
    return "descriptive.sessions[0].completion_ms"


def box_out_of_order(doc):
    box = doc["descriptive"]["summary"]["steps"]
    box["min"] = box["max"] + 1
    return "descriptive.summary.steps"


def linearity_rows_swapped(doc):
    rows = doc["linearity"]["per_session"]
    rows[0], rows[1] = rows[1], rows[0]
    return "linearity.per_session[0]"


def model_name_differs(doc):
    doc["model"]["system_name"] += "-other"
    return "model.system_name"


CORRUPTIONS = [
    ("l3-cell-string", l3_cell_string),
    ("per-session-no-share", per_session_no_share),
    ("sus-string", sus_string),
    ("session-row-not-object", session_row_not_object),
    ("share-box-no-min", share_box_no_min),
    ("idle-cap-string", idle_cap_string),
    ("totals-string", totals_string),
    ("pooled-no-value", pooled_no_value),
    ("l3-cell-float", l3_cell_float),
    ("l2-cell-bool", l2_cell_bool),
    ("per-session-row-short", per_session_row_short),
    ("share-above-one", share_above_one),
    ("share-missing-component", share_missing_component),
    ("share-total-above-one", share_total_above_one),
    ("completion-string", completion_string),
    ("box-out-of-order", box_out_of_order),
    ("linearity-rows-swapped", linearity_rows_swapped),
    ("model-name-differs", model_name_differs),
]
