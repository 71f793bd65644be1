import importlib.util
import re
from pathlib import Path

from cablemass import ode

TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_ratios.py"
spec = importlib.util.spec_from_file_location("step_ratios", TOOL)
step_ratios = importlib.util.module_from_spec(spec)
spec.loader.exec_module(step_ratios)


def test_fourth_order_on_the_stiff_preset(capsys):
    # small_stiff_ex5_in4's square wave on its stiff FOM: each halving of
    # the step divides the output difference by 16 until roundoff nears
    real = ode.step_doubling
    assert step_ratios.main(["small_stiff_ex5_in4", "20", "fom"]) == 0
    assert ode.step_doubling is real
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    ratios = [float(r) for r in re.fullmatch(r"  ratios: (.*)",
                                             lines[-1])[1].split(", ")]
    assert len(ratios) == 4
    assert all(15.0 <= r <= 17.0 for r in ratios[:3])
