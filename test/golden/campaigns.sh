#!/bin/sh
# Golden pin of the campaign subcommands.
#
# Usage: sh campaigns.sh path/to/stramash_cli.exe
#
# Runs each campaign command below in a scratch directory and prints the
# command line, its stdout, its stderr (when non-empty), every file the
# command left behind, and its exit code. The output is diffed against
# campaigns.expected under `dune runtest`, so any byte a refactor moves
# in a campaign's report, JSON snapshot or exit code shows up as a diff.

cli=$1
case $cli in /*) ;; *) cli=$(pwd)/$cli ;; esac
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

pin() {
  echo "\$ stramash_cli $*"
  "$cli" "$@" > stdout.txt 2> stderr.txt
  code=$?
  cat stdout.txt
  if [ -s stderr.txt ]; then
    echo "--- stderr"
    cat stderr.txt
  fi
  rm -f stdout.txt stderr.txt
  for f in $(ls); do
    echo "--- file $f"
    cat "$f"
    # JSON snapshots end without a newline; keep the next line separate
    [ -n "$(tail -c 1 "$f")" ] && echo
    rm -f "$f"
  done
  echo "exit=$code"
  echo
}

pin faults --seed 42
pin faults -b nope
pin chaos --seed 42 --metrics-json chaos.json
pin chaos --seed 42 --soak 2 --domains 1 --soak-json soak-d1.json
pin chaos --seed 42 --soak 2 --domains 2 --soak-json soak-d2.json
pin chaos --soak 0
pin place -b cg --seed 42 --metrics-json place.json
pin gray --seed 42 --metrics-json gray.json
pin gray --factor 0.5
pin scrub -b is --metrics-json scrub.json
pin scrub -b is -k 2
pin scrub -b is --seed 42 --soak 2 --domains 2 --soak-json scrub-soak.json
pin serve -K 16384 -n 2000 --metrics-json serve.json
pin serve -K 16384 -n 2000 --soak 2 --domains 2 --soak-json serve-soak.json
pin serve --soak 2 --trace t.json
pin serve --rate 0
pin experiment faults chaos gray scrub
pin chaos --kills=-1
pin scrub -b is --flips=-2
pin scrub --kills=-1
pin chaos --kills=100000
pin serve -n 3 -K 1024
pin scrub -b is --seed 42 --soak 2 --domains 1 --soak-json scrub-soak.json
pin serve -K 16384 -n 2000 --soak 2 --domains 1 --soak-json serve-soak.json
pin chaos --kills=20
pin chaos --kills=50
pin scrub -b is --kills=16
pin scrub -b is --kills=100000
