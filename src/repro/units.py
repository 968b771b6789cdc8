"""Time and frequency units used throughout the reproduction.

The paper reports all task parameters in microseconds and all clock
frequencies in MHz, so the library adopts those as its base units:

* **time** — microseconds (µs), stored as ``float``;
* **frequency** — MHz, stored as ``float``;
* **work** — "full-speed microseconds": a task whose WCET is ``C`` µs at the
  maximum clock carries ``C`` work units, and a processor running at speed
  ratio ``s`` (``f / f_max``) retires ``s`` work units per µs.

With µs × MHz the product is a dimensionless cycle count, which keeps cycle
arithmetic (e.g. the 10-cycle wakeup latency) exact.
"""

from __future__ import annotations

#: One microsecond, the base time unit.
US = 1.0

#: One millisecond in base units.
MS = 1_000.0

#: One second in base units.
SECOND = 1_000_000.0

#: Time units a JSON document may declare, as multipliers into base units.
TIME_UNITS = {"us": US, "ms": MS, "s": SECOND}

#: One megahertz, the base frequency unit (cycles per µs).
MHZ = 1.0

#: Absolute tolerance for time comparisons inside the event engine.  Events
#: closer together than this are considered simultaneous.
TIME_EPSILON = 1e-9


def us(value: float) -> float:
    """Express *value* microseconds in base time units."""
    return value * US


def ms(value: float) -> float:
    """Express *value* milliseconds in base time units."""
    return value * MS


def seconds(value: float) -> float:
    """Express *value* seconds in base time units."""
    return value * SECOND


def mhz(value: float) -> float:
    """Express *value* MHz in base frequency units."""
    return value * MHZ


def cycles_to_us(cycles: float, frequency_mhz: float) -> float:
    """Convert a cycle count to µs at a clock of *frequency_mhz*."""
    if frequency_mhz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_mhz}")
    return cycles / frequency_mhz


def us_to_cycles(duration_us: float, frequency_mhz: float) -> float:
    """Convert a duration in µs to a cycle count at *frequency_mhz*."""
    return duration_us * frequency_mhz


def approx_equal(a: float, b: float, tol: float = TIME_EPSILON) -> bool:
    """Return True when two times are equal within the engine tolerance."""
    return abs(a - b) <= tol
