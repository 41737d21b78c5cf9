"""Command-line driver.

Each command loads a JSON specification (or runs the shipped fixtures with
--fixtures), runs the corresponding check suite and emits a human-readable
summary plus optional JSON lines.  Exit codes: 0 all checks passed (a
recorded paper-discrepancy does not fail the run), 1 at least one check
failed, 2 malformed input, 3 an internal capability guard tripped, 4 an
internal error (any other exception, a ValueError too under --fixtures).

One parser serves every command: the command is the first positional
argument, and all commands take the same arguments, options before or after
the positionals (``main`` parses intermixed).  A run imports only what its
command uses: the spec reader only for a spec file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import suites
from .errors import CapabilityError, SpecError
from .fixtures import ORDER
from .report import DISCREPANCY, FAIL, PASS
from .scalars import ValuationError


COMMANDS = ("check-bialgebra", "poisson-group", "check-poisson", "check-mm",
            "check-hopf", "check-action", "reduce", "qreduce")


def _order(text):
    """The value of ``--order``, an int N >= 1."""
    if not text.lstrip("-").isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError("must be an int >= 1, got %r" % text)
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="poisson-forge",
        description="exact checks for Poisson-Lie structures, momentum maps "
                    "and their quantization")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("spec", nargs="?", help="JSON specification file")
    parser.add_argument("name", nargs="?", help="object name inside the spec")
    parser.add_argument("extra", nargs="?", help="second object name "
                        "(e.g. the r-matrix for poisson-group)")
    parser.add_argument("--order", type=_order, default=ORDER,
                        help="hbar truncation order N >= 1 of this run's "
                             "series and presentations (default %d)" % ORDER)
    parser.add_argument("--degree", type=int, default=3,
                        help="monomial degree bound d of check-action's "
                             "witness search and of a spec qreduce's "
                             "invariant subalgebra, in a spec run capped by "
                             "the action's own degree; --fixtures runs of "
                             "reduce and qreduce use the fixtures' degree 2 "
                             "(default 3)")
    parser.add_argument("--fixtures", action="store_true",
                        help="run the shipped fixtures for this command")
    parser.add_argument("--json", dest="json_out", metavar="OUT.JSONL",
                        help="append JSON-lines records to this file")
    return parser


def run_spec_command(command, spec, args):
    """Checks for named objects from a user specification."""
    name = args.name
    if command == "check-bialgebra":
        if name is None:
            raise SpecError("check-bialgebra needs an object name")
        if name in spec.doc.get("r_matrices", {}):
            L, r = spec.r_matrix(name)
            return suites.bialgebra_suite(name, L, r=r)
        L, d = spec.cobracket(name)
        return suites.bialgebra_suite(name, L, cobracket=d)
    if command == "poisson-group":
        if name is None or args.extra is None:
            raise SpecError("poisson-group needs a group name and an "
                            "r-matrix name")
        model = spec.matrix_group(name)
        _, r = spec.r_matrix(args.extra)
        out, _ = suites.poisson_group_suite("%s+%s" % (name, args.extra),
                                            model, r)
        return out
    if command == "check-poisson":
        if name is None:
            raise SpecError("check-poisson needs a bivector name")
        from .poisson import check_jacobi_coords
        return [("%s/jacobi-coords" % name,
                 check_jacobi_coords(spec.bivector(name)))]
    if command == "check-mm":
        if name is None:
            raise SpecError("check-mm needs a momentum map name")
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
        if name is None:
            raise SpecError("check-hopf needs a Hopf structure name")
        from .hopf import check_all_axioms
        hopf = spec.hopf_structure(name)
        confluence = hopf.algebra.check_confluence()
        out = [("%s/confluence" % name, confluence)]
        if not confluence.ok:
            # normal forms are not unique, so an axiom certificate's fail
            # would not be conclusive: report the presentation instead
            confluence.notes.append("Hopf axioms not checked: presentation "
                                    "%s is not confluent" % hopf.algebra.name)
            return out
        reports = check_all_axioms(hopf)
        return out + [("%s/%s" % (name, key), reports[key])
                      for key in ("coassociativity", "counit", "antipode",
                                  "delta-hom")]
    if command == "check-action":
        if name is None:
            raise SpecError("check-action needs an action name")
        from .qmomentum import check_module_algebra, check_action_lie_hom
        action, extras = spec.quantum_action(name)
        confluence = action.algebra.check_confluence()
        out = [("%s/confluence" % name, confluence)]
        if not confluence.ok:
            # a witness found on non-unique normal forms would not be
            # conclusive: report the presentation instead
            confluence.notes.append("action identities not checked: "
                                    "presentation %s is not confluent"
                                    % action.algebra.name)
            return out
        degree = min(args.degree, extras["degree"])
        if extras["coproducts"]:
            out.append(("%s/module-algebra" % name,
                        check_module_algebra(action, extras["coproducts"],
                                             degree)))
        relations = {}
        claims = set()
        for rel in extras["relations"]:
            pair = rel.name_pair(action.group.gens)
            relations[pair] = spec.nc_element(action.group, rel["rhs"],
                                              rel.where + " rhs")
            if rel.get("paper_claim"):
                claims.add(pair)
        if relations:
            group_monos = [tuple(action.group.gens[g] for g in w)
                           for w in action.group.monomials_up_to(2)]
            reports = check_action_lie_hom(action, relations, degree,
                                           paper_claims=claims,
                                           diagnose_words=group_monos)
            for pair in sorted(relations):
                out.append(("%s/lie-hom-%s-%s" % ((name,) + pair),
                            reports[pair]))
        return out
    if command == "reduce":
        if name is None:
            raise SpecError("reduce needs a reduction name")
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
        if name is None:
            raise SpecError("qreduce needs an action name")
        from .qmomentum import check_ideal_invariance, invariant_subalgebra
        action, extras = spec.quantum_action(name)
        confluence = action.algebra.check_confluence()
        out = [("%s/confluence" % name, confluence)]
        if not confluence.ok:
            # the action's images are normal forms, unique only on a
            # confluent presentation: report the presentation instead
            confluence.notes.append("quantum reduction not checked: "
                                    "presentation %s is not confluent"
                                    % action.algebra.name)
            return out
        degree = min(args.degree, extras["degree"])
        # one completion serves both checks
        quotient = action.algebra.quotient(extras["ideal"])
        out.append(("%s/ideal-invariance" % name,
                    check_ideal_invariance(action, extras["ideal"],
                                           quotient=quotient)))
        _, rep = invariant_subalgebra(action, extras["counit"],
                                      degree=degree,
                                      ideal_gens=extras["ideal"],
                                      quotient=quotient)
        out.append(("%s/invariant-subalgebra" % name, rep))
        return out
    raise SpecError("unknown command %r" % command)


def emit(results, json_out=None, stream=None):
    stream = stream or sys.stdout
    records = []
    worst = PASS
    for check_id, rep in results:
        record = {"check": check_id}
        record.update(rep.to_json())
        records.append(record)
        line = "[%s] %s" % (rep.verdict.upper(), check_id)
        print(line, file=stream)
        for f in rep.failures:
            print("    defect: %s" % f, file=stream)
        for n in rep.notes:
            print("    note: %s" % n, file=stream)
        for k, v in sorted(rep.data.items()):
            print("    %s = %s" % (k, v), file=stream)
        if rep.verdict == FAIL:
            worst = FAIL
        elif rep.verdict == DISCREPANCY and worst == PASS:
            worst = DISCREPANCY
    summary = "%d checks: %d pass, %d fail, %d paper-discrepancy" % (
        len(records),
        sum(1 for r in records if r["verdict"] == PASS),
        sum(1 for r in records if r["verdict"] == FAIL),
        sum(1 for r in records if r["verdict"] == DISCREPANCY))
    print(summary, file=stream)
    if json_out:
        with open(json_out, "a") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return worst


def main(argv=None):
    args = build_parser().parse_intermixed_args(argv)
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
        if isinstance(exc, ValueError) and not args.fixtures:
            # scalar/polynomial parse failures and structural rejections
            # from user-supplied objects are input errors too
            print("input error: %s" % exc, file=sys.stderr)
            return 2
        # anything else is a bug; the fixtures are shipped code, not input
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
