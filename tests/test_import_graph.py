"""The KG path stands apart from the operator zoo: importing the KG job,
its oracle, the validation report and the web-JSON boundary must not load
``stages.dataops``."""
import subprocess
import sys
from pathlib import Path

_PROBE = """
import sys
import lingvo__postagger_ner_ru_dnn_ray.pipelines.kg
import lingvo__postagger_ner_ru_dnn_ray.pipelines.oracle
import lingvo__postagger_ner_ru_dnn_ray.pipelines.validation
import lingvo__postagger_ner_ru_dnn_ray.sources.jsonio
print("lingvo__postagger_ner_ru_dnn_ray.stages.dataops" in sys.modules)
"""


def test_kg_path_does_not_import_dataops():
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", _PROBE], cwd=root, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"
