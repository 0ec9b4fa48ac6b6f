#!/usr/bin/env bash
# The session equivalence gate: the session layer must produce the same
# verdict/delivery stream as the cold protocol, in Release, where timing
# differs most from the sanitizer builds. Builds the release preset's
# suites and runs the differential session suite plus every
# session-tagged equivalence sweep (the matcher modes over every push
# shape, fixed-seed fuzz, megasim digests, the megasim byte pins and
# LightweightPeer's Reset and Error paths), every sockets-vs-simulator
# sweep (cold protocol and sessions), and the frame codec suite with its
# pinned wire bytes and hostile-frame outcomes.
#
# The one list of these targets and filters: tools/run_checks.sh stage 95
# and CI's session-equivalence job both run this script.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset release > /dev/null
cmake --build --preset release \
  --target test_session test_transport test_protocol_fuzz test_socket_transport test_sim \
  test_frame_codec
build-bench/test_frame_codec
build-bench/test_session
build-bench/test_transport --gtest_filter='*MatcherMode*'
build-bench/test_protocol_fuzz --gtest_filter='ProtocolFuzz.SessionModeAgreesWithColdProtocol:ProtocolFuzz.BatchedSessionAgreesWithColdProtocol'
build-bench/test_socket_transport --gtest_filter='SocketTransportEquivalence.*'
build-bench/test_sim --gtest_filter='ScenarioEquivalence.SessionModeAgreesWhileWireCostCollapses:ScenarioEquivalence.BatchedSessionsReproduceTheVerdictStream:ScenarioEquivalence.SharedIntrosBeatColdOnAColdHeavyStorm:ScenarioEquivalence.InvertedIndexAndPerPeerScanProduceIdenticalRuns:ScenarioGolden.*:LightweightPeerSession.*'
