"""
Rendering evaluation cards
==========================

Runs the full pipeline for all three shipped system fixtures and renders
one within-system card set each plus the between-system comparison. Open
the resulting HTML files in a browser.
"""
import json
import tempfile
from pathlib import Path

from evalcards.cards import render_between, render_within_export
from evalcards.export import export_metrics
from evalcards.fixtures import fixture_model
from evalcards.metrics import compute_metric_set, descriptive
from evalcards.serialize import canonical_json
from evalcards.survey import component_attitudes, sus_scores_by_user
from evalcards.synth import Archetype, SynthProfile, generate_bundle

out_dir = Path(tempfile.mkdtemp(prefix="evalcards-cards-"))

###############################################################################
# Give each system a different behavioral flavor so the comparison has
# something to show: Visus staged, Distil exploratory, TwoRavens iterative.

flavors = {
    "visus": dict(archetype=Archetype.LINEAR, seed=7),
    "distil": dict(archetype=Archetype.NONLINEAR, seed=8),
    "tworavens": dict(
        archetype=Archetype.ITERATIVE, seed=9,
        iteration_pair=("view_variable_summaries", "select_target_variable"),
    ),
}

exports = []
for name, flavor in sorted(flavors.items()):
    model = fixture_model(name)
    profile = SynthProfile(
        n_users=13, tasks=("classification", "regression"),
        dwell_min_ms=2_000, dwell_max_ms=60_000, **flavor,
    )
    result = generate_bundle(model, profile)
    metric_set = compute_metric_set(result.bundle)
    attitudes = component_attitudes(result.ratings, model)
    stats = descriptive(result.bundle, sus_scores_by_user(result.sus))
    export = export_metrics(metric_set, attitudes, stats)
    exports.append(export)

    export_path = out_dir / f"{name}.json"
    export_path.write_text(canonical_json(export), encoding="utf-8")
    report_path = out_dir / f"{name}.cards.html"
    report_path.write_text(render_within_export(export), encoding="utf-8")
    print(f"{name:10s} export {export_path.name:16s} report {report_path.name}")

###############################################################################
# The report is a pure function of the export: rendering from the saved
# JSON reproduces the same bytes.

reloaded = json.loads((out_dir / "visus.json").read_text())
regenerated = render_within_export(reloaded)
original = (out_dir / "visus.cards.html").read_text()
print(f"\nre-render from saved export is byte-identical: {regenerated == original}")

###############################################################################
# The comparison document places the three systems side by side per shared
# level-2 functionality.

comparison = render_between(exports)
cmp_path = out_dir / "comparison.html"
cmp_path.write_text(comparison, encoding="utf-8")
print(f"comparison report: {cmp_path}")
print(f"\nall output under: {out_dir}")
