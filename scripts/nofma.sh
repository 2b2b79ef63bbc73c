#!/bin/sh
# nofma.sh — do the portable float32 kernels compile without fused
# multiply-add on arm64?
#
#   sh scripts/nofma.sh
#
# Served classes must not depend on the host's architecture, so the
# portable float32 loops must round every product on its own, as amd64's
# MULPS/ADDPS do. The Go spec lets a compiler fuse x*y + z into one
# instruction unless an explicit conversion rounds x*y, and the arm64
# backend does. This builds the arm64 test binaries of internal/matrix
# and internal/nn with inlining off (so every function keeps its own
# symbol), disassembles MulBiasInto, sigmoid32, sigmoidRows and tanh32,
# and fails if one of them is missing or contains FMADD, FMSUB, FNMADD or
# FNMSUB. It needs only the installed toolchain.
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

status=0
# check PKG SYMBOL... disassembles each SYMBOL of ./internal/PKG.
check() {
	pkg=$1
	shift
	path=$(go list "./internal/$pkg")
	GOARCH=arm64 go test -c -gcflags=-l -o "$TMP/$pkg.test" "./internal/$pkg"
	for sym in "$@"; do
		go tool objdump -s "^$path\\.$sym(\\[|\$)" "$TMP/$pkg.test" >"$TMP/dis"
		if ! grep -q '^TEXT' "$TMP/dis"; then
			echo "nofma.sh: $path.$sym not found in the arm64 test binary" >&2
			status=1
		elif grep -E 'FMADD|FMSUB|FNMADD|FNMSUB' "$TMP/dis" >"$TMP/fused"; then
			echo "nofma.sh: $path.$sym fuses a multiply and an add on arm64:" >&2
			cat "$TMP/fused" >&2
			status=1
		fi
	done
}

check matrix MulBiasInto
check nn sigmoid32 sigmoidRows tanh32
[ "$status" -eq 0 ] && echo "nofma.sh: no fused multiply-add in the portable float32 kernels"
exit "$status"
