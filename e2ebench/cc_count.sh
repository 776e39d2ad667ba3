#!/bin/sh
# Counting host-compiler wrapper for TRIDENT_CC, used by the traced run
# only: appends one line per compiler run to $E2E_CC_LOG, then runs the
# real compiler ($CC, else cc) with the same arguments.
if [ -n "$E2E_CC_LOG" ]; then echo cc >> "$E2E_CC_LOG"; fi
exec "${CC:-cc}" "$@"
