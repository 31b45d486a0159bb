"""The speed track samples while a job runs and accounts for its own time."""

import signal
import time

import speed


def test_samples_during_a_long_job_and_counts_their_time():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedTrack() as track:
        spent0 = track.spent
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        t1 = time.perf_counter()
        spent = track.spent - spent0

    inside = [t for t, _ in track.samples if t0 <= t <= t1]
    assert len(inside) >= 0.5 * (t1 - t0) / speed.SAMPLE_EVERY_S
    assert 0 < spent < 0.5 * (t1 - t0)
    assert track.slowdown(t0, t1) > 0
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
