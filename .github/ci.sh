# Shell functions for the steps of .github/workflows/tests.yml that source
# this file; each writes under $RUNNER_TEMP and fails the step (bash -e).

# refuse NAME PREFIX SUBCOMMAND [CONFIG | --out OUT]: the installed potlab
# refuses CONFIG (with none, an absent file; with --out, no config and the
# --out OUT) with exit 2, nothing on stdout, one stderr line that starts
# with PREFIX, no traceback and no --out directory
refuse() {
  d="$RUNNER_TEMP/refused/$1"; mkdir -p "$d"
  args=(--config "$d/cfg.json" --out "$d/out")
  if [ "${4-}" = --out ]; then args=(--out "$5")
  elif [ $# -gt 3 ]; then echo "$4" > "$d/cfg.json"; fi
  rc=0
  potlab "$3" "${args[@]}" > "$d/stdout" 2> "$d/stderr" || rc=$?
  echo "$1: $(cat "$d/stderr")"
  test "$rc" -eq 2
  test ! -s "$d/stdout"
  test "$(wc -l < "$d/stderr")" -eq 1
  grep -q "^$2" "$d/stderr"
  if grep -q Traceback "$d/stderr"; then exit 1; fi
  test ! -e "$d/out"
}

# twice NAME SUBCOMMAND CONFIG [FLAG]: CONFIG, as $RUNNER_TEMP/NAME.json,
# runs with RuntimeWarning as an error into NAME, then with FLAG into
# NAME_again, and both trees hold the same bytes; a prop1 run passes, its
# per_n degrees the echoed n_list, every degree proved, no root fallen back
twice() {
  o="$RUNNER_TEMP/$1"; echo "$3" > "$o.json"
  python -W error::RuntimeWarning -m potlab.cli "$2" --config "$o.json" --out "$o"
  python -W error::RuntimeWarning -m potlab.cli "$2" --config "$o.json" ${4-} --out "${o}_again"
  diff -r "$o" "${o}_again"
  if [ "$2" = prop1 ]; then
    python - "$o/summary.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1])); per_n = s["per_n"]
assert s["pass"] is True and [e["n"] for e in per_n] == s["config"]["n_list"], s
assert all(e["stability_pass"] is True and e["zero_fallbacks"] == 0 for e in per_n), per_n
EOF
  fi
}
