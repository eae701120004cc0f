"""The offline side: what ``costmodel_fit`` trains is what ships.

The harvest / candidate-fit contracts live in the neighbouring file
that predates the module split (its name is kept so its test ids stay
stable).
"""

import numpy as np

from repro.core import costmodel_fit
from repro.core.costmodel import pretrained_default, save_artifact

REGENERATE = (
    'PYTHONPATH=src python -c "'
    "from repro.core.costmodel import save_artifact, DEFAULT_ARTIFACT; "
    "from repro.core.costmodel_fit import train_default; "
    "save_artifact(train_default(), DEFAULT_ARTIFACT, provenance="
    "{'trained_by': 'repro.core.costmodel_fit.train_default'})\""
)


def test_shipped_default_is_what_training_produces(monkeypatch, tmp_path):
    corpus = {}
    collect = costmodel_fit.collect_training_data

    def spy(graphs):
        corpus["features"], costs = collect(graphs)
        return corpus["features"], costs

    monkeypatch.setattr(costmodel_fit, "collect_training_data", spy)
    trained = costmodel_fit.train_default()
    shipped = pretrained_default()
    stale = ("src/repro/core/default_costmodel.json is not what "
             f"train_default() produces; regenerate it with:\n{REGENERATE}")
    retrained = save_artifact(trained, tmp_path / "retrained.json")
    assert retrained["digest"] == shipped.artifact["digest"], stale
    assert np.array_equal(trained.predict(corpus["features"]),
                          shipped.predict(corpus["features"])), stale
