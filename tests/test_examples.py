"""The examples run against the current API and print what they printed.

``examples/trace_timeline.py`` renders each lane of a recorded log through
``EventLog.spans()``; its stdout below was captured before the log became
columns only, and a refactor of the log must not move a character of it.
"""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

TRACE_TIMELINE_STDOUT = """\
Subway: 7 iterations, 3.81s simulated
   cpu |  #  ###      ##    ####       ########           ######          ##    | busy   1.36s  idle   2.45s (lead 0.14 / stall 2.12 / tail 0.19)
  copy |#### #  ##    # ##  #   ###    #       ####       #     ####      # #  #| busy   1.14s  idle   2.68s (lead 0.00 / stall 2.68 / tail 0.00)
   gpu |  # ##    #####   ###      #####           ########         #######  ## | busy   1.31s  idle   2.50s (lead 0.14 / stall 2.32 / tail 0.05)

Ascetic: 7 iterations, 2.38s simulated
   cpu |##############################  ##   #   ##    ###        ###       #   | busy   1.32s  idle   1.05s (lead 0.00 / stall 0.95 / tail 0.11)
  copy |########################        ##   ##  ###   ####       ####      # ##| busy   1.07s  idle   1.30s (lead 0.00 / stall 1.30 / tail 0.00)
   gpu |                              ######################################### | busy   1.31s  idle   1.06s (lead 1.02 / stall 0.00 / tail 0.05)

  Subway: GPU idle 65.5% of the run (2.32s of it mid-run stalls)

 Ascetic: GPU idle 44.7% of the run (0.00s of it mid-run stalls)

Ascetic end-to-end speedup over Subway: 1.60x
"""


def test_trace_timeline_prints_what_it_always_printed(capsys):
    runpy.run_path(str(EXAMPLES / "trace_timeline.py"), run_name="__main__")
    assert capsys.readouterr().out == "\n" + TRACE_TIMELINE_STDOUT
