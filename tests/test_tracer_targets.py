"""The benchmark tracer's targets still name live library functions.

perfbench/tracer.py wraps library functions by module and name.  A layer
whose every target is gone reports its metrics as absent, and a traced run
then prints `null` where a number belongs.  The tracer's source is read and
executed into a fresh namespace, so nothing is written under perfbench/.
"""

import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_layer_metric_has_a_live_tracer_target():
    tracer = _tracer()
    live = {layer for layer, module, attr, _ in tracer.TARGETS
            if tracer._resolve(module, attr) is not None}
    for metric, (_, layers) in tracer.LAYER_METRICS.items():
        missing = [layer for layer in layers if layer not in live]
        assert not missing, f"{metric} has no live target in layers {missing}"
