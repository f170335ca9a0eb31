#include "perfbench/src/layer_cost.h"

#include <string>

#include "perfbench/src/alloc_count.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"
#include "src/core/policy.h"
#include "src/dsm/diff.h"
#include "src/netio/delta.h"
#include "src/netio/frame.h"
#include "src/proto/wire.h"
#include "src/runtime/channel.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace perfbench {

namespace {

using hmdsm::Buf;
using hmdsm::Bytes;

constexpr int kBatches = 7;

// Keeps results observable so the timed calls cannot be optimised away.
volatile std::uint64_t g_sink = 0;
void Keep(std::uint64_t v) { g_sink = g_sink + v; }

/// Median over kBatches of the mean ns per call of `fn` over `iters` calls.
template <typename Fn>
double NsPerCall(std::size_t iters, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t t0 = NowNs();
    for (std::size_t i = 0; i < iters; ++i) fn(i);
    per_call.push_back(static_cast<double>(NowNs() - t0) /
                       static_cast<double>(iters));
  }
  return Median(per_call);
}

/// operator new calls per call of `fn`, over `iters` calls.
template <typename Fn>
double AllocsPerCall(std::size_t iters, Fn&& fn) {
  const std::uint64_t before = ThreadAllocations();
  for (std::size_t i = 0; i < iters; ++i) fn(i);
  return static_cast<double>(ThreadAllocations() - before) /
         static_cast<double>(iters);
}

Bytes RandomBytes(hmdsm::Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<hmdsm::Byte>(rng.next());
  return b;
}

hmdsm::proto::ObjReply Reply(hmdsm::Rng& rng, std::size_t bytes) {
  hmdsm::proto::ObjReply m;
  m.obj = hmdsm::dsm::ObjectId::Make(0, 1, 7);
  m.data = RandomBytes(rng, bytes);
  m.home_epoch = 3;
  return m;
}

/// `base` with its first 16 bytes rewritten (a small write to a large
/// object).
Bytes Dirtied(hmdsm::Rng& rng, const Bytes& base) {
  Bytes b = base;
  for (std::size_t i = 0; i < 16 && i < b.size(); ++i)
    b[i] = static_cast<hmdsm::Byte>(rng.next());
  return b;
}

}  // namespace

std::map<std::string, double> RunLayerCosts(std::uint64_t seed) {
  namespace proto = hmdsm::proto;
  namespace netio = hmdsm::netio;
  hmdsm::Rng rng(seed);
  std::map<std::string, double> m;

  // proto: ObjReply encode/decode at both payload sizes.
  for (const auto& [bytes, suffix] :
       {std::pair<std::size_t, std::string>{256, "256b"}, {4096, "4k"}}) {
    const proto::ObjReply reply = Reply(rng, bytes);
    const Bytes wire = proto::Encode(reply);
    m["proto.encode_ns_" + suffix] = NsPerCall(
        20000, [&](std::size_t) { Keep(proto::Encode(reply).size()); });
    m["proto.decode_ns_" + suffix] = NsPerCall(20000, [&](std::size_t) {
      proto::AnyMsg msg;
      std::string error;
      HMDSM_CHECK(proto::TryDecode(wire, &msg, &error));
      Keep(msg.index());
    });
  }
  {
    const proto::ObjReply reply = Reply(rng, 256);
    m["proto.encode_allocs_per_msg"] = AllocsPerCall(
        1000, [&](std::size_t) { Keep(proto::Encode(reply).size()); });
  }

  // netio: one data frame carrying a 256 B ObjReply, encode and zero-copy
  // decode (the socket reader's path).
  {
    netio::DataFrame frame;
    frame.src = 1;
    frame.dst = 0;
    frame.cat = hmdsm::stats::MsgCat::kObj;
    frame.payload = Buf(proto::Encode(Reply(rng, 256)));
    const Buf wire(netio::Encode(frame));
    m["netio.frame_encode_ns_256b"] = NsPerCall(
        20000, [&](std::size_t) { Keep(netio::Encode(frame).size()); });
    m["netio.frame_decode_ns_256b"] = NsPerCall(20000, [&](std::size_t) {
      netio::DataFrame out;
      std::string error;
      HMDSM_CHECK(netio::TryDecode(wire, &out, &error));
      Keep(out.payload.size());
    });
    m["netio.encode_allocs_per_frame"] = AllocsPerCall(
        1000, [&](std::size_t) { Keep(netio::Encode(frame).size()); });
  }

  // dsm diff and netio delta at 4 KiB with 16 dirty bytes: two versions
  // alternate, so every diff carries one 16-byte run.
  {
    const Bytes v0 = proto::Encode(Reply(rng, 4096));
    const Bytes v1 = Dirtied(rng, v0);
    const Bytes diff = hmdsm::dsm::Diff::Encode(v0, v1);
    m["diff.create_ns_4k"] = NsPerCall(5000, [&](std::size_t) {
      Keep(hmdsm::dsm::Diff::Encode(v0, v1).size());
    });
    Bytes target = v0;
    m["diff.apply_ns_4k"] = NsPerCall(5000, [&](std::size_t) {
      hmdsm::dsm::Diff::Apply(diff, target);
      Keep(target[0]);
    });

    // The sender's delta hit path: probe the link cache, diff against the
    // cached version, encode the delta frame, advance the cache.
    const Buf versions[2] = {Buf(Bytes(v0)), Buf(Bytes(v1))};
    netio::DeltaCache cache;
    constexpr std::uint64_t kKey = 42;
    cache.Store(kKey, versions[0]);
    m["netio.delta_encode_ns_4k"] = NsPerCall(5000, [&](std::size_t i) {
      const Buf& next = versions[(i + 1) % 2];
      const netio::DeltaCache::Entry* prev = cache.Find(kKey);
      HMDSM_CHECK(prev != nullptr);
      Bytes d = hmdsm::dsm::Diff::Encode(prev->payload.span(), next.span());
      const std::uint32_t base_seq = prev->seq;
      cache.Advance(kKey, next, base_seq + 1);
      Keep(netio::Encode(netio::DeltaFrame{1, 0,
                                                hmdsm::stats::MsgCat::kObj,
                                                kKey, base_seq,
                                                Buf(std::move(d))})
                    .size());
    });
  }

  // runtime: one mailbox ring push and pop of a small packet.
  {
    hmdsm::runtime::MpscRing ring(hmdsm::runtime::Channel::kDefaultRingCapacity);
    const Buf payload(proto::Encode(proto::LockGrantMsg{}));
    m["runtime.ring_push_pop_ns"] = NsPerCall(50000, [&](std::size_t) {
      hmdsm::net::Packet p;
      p.payload = payload;
      HMDSM_CHECK(ring.TryPush(std::move(p)));
      hmdsm::net::Packet out;
      HMDSM_CHECK(ring.TryPop(out));
      Keep(out.payload.size());
    });
  }

  // core: one adaptive-threshold decision.
  {
    const hmdsm::core::AdaptiveThresholdPolicy policy;
    hmdsm::core::ObjPolicyState state;
    state.consecutive_writer = 2;
    state.consecutive_remote_writes = 2;
    state.redirected_requests = 3;
    state.exclusive_home_writes = 1;
    state.RecordDiffSize(16);
    m["core.should_migrate_ns"] = NsPerCall(50000, [&](std::size_t i) {
      Keep(policy.ShouldMigrate(
          state, static_cast<hmdsm::dsm::NodeId>(i % 4), 256, true));
    });
  }
  return m;
}

}  // namespace perfbench
