"""Report values returned by every checker.

A checker never raises on a mathematical failure: it returns a Report whose
verdict is "pass" or "fail" together with the located defect, so a failing
identity is data, not an exception.  "paper-discrepancy" is a first-class
verdict for checks that succeeded mechanically but contradict a stored
literature claim; surfacing these is part of the job.
"""

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "paper-discrepancy"


class Report:
    def __init__(self, check, verdict, failures=(), notes=(), data=None):
        self.check = check
        self.verdict = verdict
        self.failures = list(failures)
        self.notes = list(notes)
        self.data = data if data is not None else {}

    @staticmethod
    def from_failures(check, failures, notes=(), data=None):
        verdict = PASS if not failures else FAIL
        return Report(check, verdict, failures, notes, data)

    @property
    def ok(self):
        return self.verdict == PASS

    def __bool__(self):
        return self.ok

    def __repr__(self):
        base = "Report(%s: %s" % (self.check, self.verdict)
        if self.failures:
            base += "; %d failure(s), first: %s" % (len(self.failures), self.failures[0])
        return base + ")"

    def to_json(self):
        return {
            "kind": self.check,
            "verdict": self.verdict,
            "failures": [str(f) for f in self.failures],
            "notes": [str(n) for n in self.notes],
            "data": {str(k): str(v) for k, v in sorted(self.data.items(),
                                                       key=lambda kv: str(kv[0]))},
        }


def merge(check, reports):
    """Combine sub-reports; fails if any sub-report fails."""
    failures = []
    notes = []
    verdict = PASS
    for r in reports:
        if r.verdict == FAIL:
            verdict = FAIL
        elif r.verdict == DISCREPANCY and verdict == PASS:
            verdict = DISCREPANCY
        failures.extend("%s: %s" % (r.check, f) for f in r.failures)
        notes.extend("%s: %s" % (r.check, n) for n in r.notes)
    return Report(check, verdict, failures, notes)
