"""Command-line driver.

Each command loads a JSON specification (or runs the shipped fixtures with
--fixtures), runs the corresponding check suite and emits a human-readable
summary plus optional JSON lines.  Exit codes: 0 all checks passed (a
recorded paper-discrepancy does not fail the run), 1 at least one check
failed, 2 malformed input (a ``SpecError`` naming the spec entry), 3 an
internal capability guard tripped, 4 an internal error (any other
exception, a ValueError too).

One fixed grammar serves every command (``parse_args``): up to four
positionals, COMMAND [SPEC] [NAME] [EXTRA], and the options --order N,
--degree D, --json OUT and --fixtures before, between or after them.  A
valued option also reads ``--opt=value``; options are spelled in full, with
no prefix abbreviation, and ``--`` ends them.  A malformed command line
prints the usage to stderr and exits 2.  A run imports only what its
command uses: the spec reader only for a spec file, ``json`` only for
--json.
"""

import sys
import time
from types import SimpleNamespace

from . import ORDER, suites
from .errors import CapabilityError, SpecError
from .report import DISCREPANCY, FAIL, PASS
from .scalars import ValuationError


COMMANDS = ("check-bialgebra", "poisson-group", "check-poisson", "check-mm",
            "check-hopf", "check-action", "reduce", "qreduce")


USAGE = ("usage: poisson-forge [-h] [--order N] [--degree D] [--fixtures] "
         "[--json OUT.JSONL]\n"
         "                     COMMAND [SPEC] [NAME] [EXTRA]\n")

HELP = USAGE + """
exact checks for Poisson-Lie structures, momentum maps and their quantization

commands:
%s

positional arguments:
  COMMAND           one of the commands above
  SPEC              JSON specification file
  NAME              object name inside the spec
  EXTRA             second object name (e.g. the r-matrix for poisson-group)

options (before, between or after the positionals; --opt=value works too):
  -h, --help        show this help message and exit
  --order N         hbar truncation order N >= 1 of this run's series and
                    presentations (default %d)
  --degree D        monomial degree bound d >= 0 of check-action's witness
                    search and of a spec qreduce's invariant subalgebra, in a
                    spec run capped by the action's own degree; --fixtures
                    runs of reduce and qreduce use the fixtures' degree 2
                    (default 3)
  --fixtures        run the shipped fixtures for this command
  --json OUT.JSONL  append JSON-lines records to this file
""" % ("\n".join("  " + c for c in COMMANDS), ORDER)

POSITIONALS = ("command", "spec", "name", "extra")

# option -> (field, least value for an int option, None for a path)
VALUED = {"--order": ("order", 1), "--degree": ("degree", 0),
          "--json": ("json_out", None)}


def _error(message):
    sys.stderr.write(USAGE + "poisson-forge: error: %s\n" % message)
    raise SystemExit(2)


def _is_option(arg):
    """Whether ``arg`` reads as an option, not a value: ``-`` and negative
    numbers are values."""
    return arg[:1] == "-" and arg != "-" and not arg[1:].isdigit()


def parse_args(argv):
    """The run's arguments from ``argv``: up to four positionals, and
    options anywhere among them, each spelled out in full."""
    args = SimpleNamespace(command=None, spec=None, name=None, extra=None,
                           order=ORDER, degree=3, fixtures=False,
                           json_out=None)
    positionals, unknown = [], []
    rest = iter(argv)
    for arg in rest:
        opt, eq, value = arg.partition("=")
        if arg == "--":
            positionals.extend(rest)
        elif arg in ("-h", "--help"):
            sys.stdout.write(HELP)
            raise SystemExit(0)
        elif arg == "--fixtures":
            args.fixtures = True
        elif opt in VALUED:
            if not eq:
                value = next(rest, None)
                if value is None or _is_option(value):
                    _error("argument %s: expected one argument" % opt)
            field, least = VALUED[opt]
            if least is not None:
                try:
                    number = int(value)
                except ValueError:
                    _error("argument %s: invalid int value: %r"
                           % (opt, value))
                if number < least:
                    _error("argument %s: must be an int >= %d, got %r"
                           % (opt, least, value))
                value = number
            setattr(args, field, value)
        elif _is_option(arg):
            unknown.append(arg)
        else:
            positionals.append(arg)
    if not positionals:
        _error("the following arguments are required: command")
    if positionals[0] not in COMMANDS:
        _error("argument command: invalid choice: %r (choose from %s)"
               % (positionals[0], ", ".join(map(repr, COMMANDS))))
    unknown += positionals[len(POSITIONALS):]
    if unknown:
        _error("unrecognized arguments: %s" % " ".join(unknown))
    vars(args).update(zip(POSITIONALS, positionals))
    return args


def _confluence(name, presentation, unchecked):
    """The confluence record of ``presentation`` as a one-record result,
    and whether it passed.  On a presentation that is not confluent normal
    forms are not unique, so a certificate's fail or a witness found there
    would not be conclusive: the record then notes that ``unchecked`` were
    not checked, and the command reports the presentation instead."""
    rep = presentation.check_confluence()
    if not rep.ok:
        rep.notes.append("%s not checked: presentation %s is not confluent"
                         % (unchecked, presentation.name))
    return [("%s/confluence" % name, rep)], rep.ok


# the object names each command needs
NAMES = {"check-bialgebra": "an object name",
         "poisson-group": "a group name and an r-matrix name",
         "check-poisson": "a bivector name", "reduce": "a reduction name",
         "check-mm": "a momentum map name",
         "check-hopf": "a Hopf structure name",
         "check-action": "an action name", "qreduce": "an action name"}


def run_spec_command(command, spec, args):
    """Checks for named objects from a user specification."""
    name = args.name
    if name is None or command == "poisson-group" and args.extra is None:
        raise SpecError("%s needs %s" % (command, NAMES[command]))
    if command == "check-bialgebra":
        L, given = spec.bialgebra(name)
        return suites.bialgebra_suite(name, L, **given)
    if command == "poisson-group":
        model = spec.matrix_group(name)
        _, r = spec.r_matrix(args.extra)
        out, _ = suites.poisson_group_suite("%s+%s" % (name, args.extra),
                                            model, r)
        return out
    if command == "check-poisson":
        from .poisson import check_jacobi_coords
        return [("%s/jacobi-coords" % name,
                 check_jacobi_coords(spec.bivector(name)))]
    if command == "check-mm":
        mm = spec.momentum_map(name)
        from .momentum import (
            classical_mm_check, check_infinitesimal_mm, heisenberg_obstruction,
        )
        from .poisson import hamiltonian_field
        if mm["type"] == "classical":
            action = {g: hamiltonian_field(mm["bivector"], h)
                      for g, h in mm["hamiltonians"].items()}
            return [("%s/classical" % name,
                     classical_mm_check(mm["bivector"], mm["hamiltonians"],
                                        action, mm["algebra"]))]
        if mm["type"] == "infinitesimal":
            reports = check_infinitesimal_mm(mm["bivector"], mm["cobracket"],
                                             mm["alpha"])
            return [("%s/bracket" % name, reports["bracket"]),
                    ("%s/structure-half" % name, reports["half"]),
                    ("%s/structure-plain" % name, reports["plain"])]
        return [("%s/heisenberg" % name,
                 heisenberg_obstruction(mm["bivector"], mm["alpha"]))]
    if command == "check-hopf":
        from .hopf import check_all_axioms
        hopf = spec.hopf_structure(name)
        out, confluent = _confluence(name, hopf.algebra, "Hopf axioms")
        if not confluent:
            return out
        reports = check_all_axioms(hopf)
        return out + [("%s/%s" % (name, key), reports[key])
                      for key in ("coassociativity", "counit", "antipode",
                                  "delta-hom")]
    if command == "check-action":
        from .qmomentum import check_module_algebra, check_action_lie_hom
        action, extras = spec.quantum_action(name)
        out, confluent = _confluence(name, action.algebra,
                                     "action identities")
        if not confluent:
            return out
        degree = min(args.degree, extras["degree"])
        gate = suites.group_gate(name, action.hopf, ["module-algebra"])
        out += gate or [("%s/module-algebra" % name,
                         check_module_algebra(action, degree))]
        relations = extras["relations"]
        if relations:
            reports = check_action_lie_hom(action, relations, degree,
                                           paper_claims=extras["claims"])
            for pair in sorted(relations):
                out.append(("%s/lie-hom-%s-%s" % ((name,) + pair),
                            reports[pair]))
        return out
    if command == "reduce":
        from .reduction import (
            check_ideal_poisson_closed, check_ideal_invariant,
            invariant_functions, sw_reduced_algebra,
        )
        setup, degree = spec.reduction(name)
        out = [("%s/ideal-poisson-closed" % name,
                check_ideal_poisson_closed(setup)),
               ("%s/ideal-invariant" % name, check_ideal_invariant(setup))]
        basis, closure = invariant_functions(setup, degree)
        out.append(("%s/invariant-closure" % name, closure))
        _, _, rep = sw_reduced_algebra(setup, basis)
        out.append(("%s/sw-reduced-algebra" % name, rep))
        return out
    if command == "qreduce":
        from .qmomentum import check_ideal_invariance, invariant_subalgebra
        action, extras = spec.quantum_action(name)
        out, confluent = _confluence(name, action.algebra,
                                     "quantum reduction")
        if not confluent:
            return out
        degree = min(args.degree, extras["degree"])
        gate = suites.group_gate(name, action.hopf, ["invariant-subalgebra"])
        # one completion serves both checks: the invariants are those of
        # the action on A / J
        quotient = action.algebra.quotient(extras["ideal"])
        out += gate + [("%s/ideal-invariance" % name,
                        check_ideal_invariance(action, extras["ideal"],
                                               quotient))]
        if not gate:
            _, rep = invariant_subalgebra(action.on(quotient), degree=degree)
            out.append(("%s/invariant-subalgebra" % name, rep))
        return out
    raise SpecError("unknown command %r" % command)


def emit(results, json_out=None):
    records = []
    worst = PASS
    for check_id, rep in results:
        record = {"check": check_id}
        record.update(rep.to_json())
        records.append(record)
        line = "[%s] %s" % (rep.verdict.upper(), check_id)
        print(line)
        for f in rep.failures:
            print("    defect: %s" % f)
        for n in rep.notes:
            print("    note: %s" % n)
        for k, v in sorted(rep.data.items()):
            print("    %s = %s" % (k, v))
        if rep.verdict == FAIL:
            worst = FAIL
        elif rep.verdict == DISCREPANCY and worst == PASS:
            worst = DISCREPANCY
    summary = "%d checks: %d pass, %d fail, %d paper-discrepancy" % (
        len(records),
        sum(1 for r in records if r["verdict"] == PASS),
        sum(1 for r in records if r["verdict"] == FAIL),
        sum(1 for r in records if r["verdict"] == DISCREPANCY))
    print(summary)
    if json_out:
        import json  # only a --json run writes records
        with open(json_out, "a") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return worst


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.json_out:
        # opened before any check runs: an unusable OUT is a malformed
        # command line, not a traceback after the verdicts
        try:
            open(args.json_out, "a").close()
        except OSError as exc:
            _error("argument --json: can't open %r: %s"
                   % (args.json_out, exc.strerror))
    started = time.time()
    try:
        if args.fixtures:
            results = suites.run_fixture_suite(args.command, args.degree,
                                               args.order)
        else:
            if not args.spec:
                print("error: need a spec file or --fixtures",
                      file=sys.stderr)
                return 2
            from .specfile import SpecFile
            spec = SpecFile.load(args.spec, args.order)
            results = run_spec_command(args.command, spec, args)
    except SpecError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except (CapabilityError, ValuationError) as exc:
        print("capability exceeded: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:
        # anything else is a bug: the spec file's malformed entries are
        # SpecErrors, and the fixtures are shipped code, not input
        import traceback  # error path only; not a start-up import
        traceback.print_exc()
        print("internal error: %s" % exc, file=sys.stderr)
        return 4
    worst = emit(results, json_out=args.json_out)
    elapsed = time.time() - started
    print("elapsed: %.2fs" % elapsed)
    return 1 if worst == FAIL else 0


if __name__ == "__main__":
    sys.exit(main())
