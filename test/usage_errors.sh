#!/bin/sh
# Runs rfauto with parameters its experiments reject and expects each
# to be reported as a usage error: exit 64, no uncaught exception.
# Usage: usage_errors.sh RFAUTO
rfauto=$1
status=0
expect_usage_error() {
  err=$("$rfauto" "$@" 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne 64 ]; then
    echo "rfauto $*: exit $code, expected 64" >&2
    status=1
  fi
  case $err in
  *"uncaught exception"*)
    echo "rfauto $*: uncaught exception: $err" >&2
    status=1
    ;;
  esac
}
expect_usage_error failure --switches 3
expect_usage_error demo --server Nowhere
expect_usage_error cluster --replicas 2
exit $status
