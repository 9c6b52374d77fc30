"""Timer utilities used by the Table VI benchmark."""

import time

from repro.eval.timing import Timer, timed


class TestTimer:
    def test_measures_elapsed(self):
        timer = Timer()
        with timer.measure("work"):
            time.sleep(0.01)
        assert timer.seconds("work") >= 0.01

    def test_accumulates_same_name(self):
        timer = Timer()
        for _ in range(2):
            with timer.measure("step"):
                time.sleep(0.005)
        assert timer.seconds("step") >= 0.01

    def test_total_sums_all(self):
        timer = Timer()
        with timer.measure("a"):
            pass
        with timer.measure("b"):
            pass
        assert timer.total() == timer.seconds("a") + timer.seconds("b")

    def test_unknown_name_is_zero(self):
        assert Timer().seconds("nothing") == 0.0

    def test_as_dict(self):
        timer = Timer()
        with timer.measure("x"):
            pass
        assert "x" in timer.as_dict()


class TestTimed:
    def test_records_duration(self):
        with timed() as result:
            time.sleep(0.01)
        assert result[0] >= 0.01

