#!/bin/sh
# One run of the synthetic compiler written by synth.py.
#
# usage: sh gencov.sh OUT BUG_FRAGMENT PLANTED STEP...
#
# Run from a pipeline directory.  PLANTED is a comma-separated list of
# step ids.  Prints "miscompiled" when every planted step is among the
# retained STEPs, else "ok", and writes the run's gcov JSON document to
# OUT, gzip-compressed: the head, the fragment of each retained step, the
# bug fragment when the bug fires, and the tail.
out=$1; bug=$2; planted=$3; shift 3
retained=" $* "
IFS=,
for p in $planted; do
  case $retained in *" $p "*) ;; *) bug= ;; esac
done
unset IFS
if [ -n "$bug" ]; then echo miscompiled; else echo ok; fi
awk -F '\t' -v retained="$retained" '
  BEGIN { n = split(retained, ids, " "); for (i = 1; i <= n; i++) keep[ids[i]] = 1 }
  FILENAME != "steps.tsv" { print; next }
  $1 in keep { print $2 }
' head.json steps.tsv ${bug:+"$bug"} tail.json | gzip -1 > "$out"
