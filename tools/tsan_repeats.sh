#!/usr/bin/env bash
# Fifty ThreadSanitizer repeats of the tests whose synchronisation
# EndpointRegistry and SocketTransport's pipelined runs own: attach/detach,
# in-flight counts, drain, queue backpressure, and a worker completing a
# run's callbacks in order as its replies arrive. One pass misses rare
# interleavings: a first-contact race once failed about one run in ten.
#
# The one list of these tests: tools/run_checks.sh stage 42 and CI's tsan
# leg both run this script. Needs the tsan preset built (build-tsan/).
set -euo pipefail

cd "$(dirname "$0")/.."

build-tsan/test_transport --gtest_repeat=50 --gtest_brief=1 \
  --gtest_filter='EndpointContract*:SendAsyncContract*:AsyncTransportTest.*Detach*:AsyncTransportTest.*Backpressure*:AsyncTransportTest.HandlerContext*'
build-tsan/test_socket_transport --gtest_repeat=50 --gtest_brief=1 \
  --gtest_filter='SocketTransport.*Backpressure*:SocketTransportRun.*'
