#include "api/mls.hpp"

#include "api/detail.hpp"
#include "cache/cache.hpp"
#include "network/blif.hpp"

namespace l2l::api {

namespace {

constexpr std::uint64_t kMlsFormatVersion = 1;

cache::CacheKey make_key(const std::string& blif,
                         const mls::ScriptOptions& opt) {
  cache::Hasher h;
  h.u64(kMlsFormatVersion)
      .i32(opt.eliminate_threshold)
      .boolean(opt.use_sdc_simplify)
      .i32(opt.passes);
  return {"mls", cache::digest_bytes(blif), h.finish()};
}

// The payload: the optimized network's BLIF text, then its stats.
void append_payload(std::string& out, const std::string& blif,
                    const mls::ScriptStats& s) {
  cache::append_record(out, blif);
  cache::append_i64(out, s.literals_before);
  cache::append_i64(out, s.literals_after);
  cache::append_i64(out, s.nodes_before);
  cache::append_i64(out, s.nodes_after);
  cache::append_i64(out, s.swept);
  cache::append_i64(out, s.eliminated);
  cache::append_i64(out, s.kernels_extracted);
  cache::append_i64(out, s.cubes_extracted);
  cache::append_i64(out, s.resubstitutions);
}

bool read_payload(cache::RecordReader& in, std::string& blif,
                  mls::ScriptStats& s) {
  if (!in.next_string(blif)) return false;
  std::int64_t v[9];
  for (auto& f : v)
    if (!in.next_i64(f)) return false;
  s.literals_before = static_cast<int>(v[0]);
  s.literals_after = static_cast<int>(v[1]);
  s.nodes_before = static_cast<int>(v[2]);
  s.nodes_after = static_cast<int>(v[3]);
  s.swept = static_cast<int>(v[4]);
  s.eliminated = static_cast<int>(v[5]);
  s.kernels_extracted = static_cast<int>(v[6]);
  s.cubes_extracted = static_cast<int>(v[7]);
  s.resubstitutions = static_cast<int>(v[8]);
  return true;
}

}  // namespace

MlsResult optimize_blif(const MlsRequest& req) {
  return detail::cached_call<MlsResult>(
      req.cacheable(), [&] { return make_key(req.blif, req.options); },
      [&] {
        MlsResult res;
        network::Network net;
        try {
          net = network::parse_blif(req.blif);
        } catch (const std::exception& e) {
          res.status = util::Status::parse_error(e.what());
          return res;
        }
        res.stats = mls::optimize(net, req.options);
        res.blif = network::write_blif(net);
        return res;
      },
      [](std::string& out, const MlsResult& res) {
        append_payload(out, res.blif, res.stats);
      },
      [](cache::RecordReader& in, MlsResult& res) {
        return read_payload(in, res.blif, res.stats);
      },
      // The payload has no status: a stored parse failure would replay
      // as an empty success.
      [](const MlsResult& res) { return res.status.ok(); });
}

MlsNetworkResult optimize_network(network::Network& net,
                                  const mls::ScriptOptions& opt,
                                  bool use_cache) {
  // Miss: optimize in place -- bit-for-bit the uncached code path. Hit:
  // replace `net` by the cached canonical BLIF; a payload whose BLIF does
  // not parse is a miss, like any other malformed entry.
  network::Network hit_net;
  auto res = detail::cached_call<MlsNetworkResult>(
      use_cache, [&] { return make_key(network::write_blif(net), opt); },
      [&] {
        MlsNetworkResult miss;
        miss.stats = mls::optimize(net, opt);
        return miss;
      },
      [&](std::string& out, const MlsNetworkResult& r) {
        append_payload(out, network::write_blif(net), r.stats);
      },
      [&](cache::RecordReader& in, MlsNetworkResult& r) {
        std::string blif;
        if (!read_payload(in, blif, r.stats)) return false;
        try {
          hit_net = network::parse_blif(blif);
        } catch (const std::exception&) {
          return false;
        }
        return true;
      });
  if (res.cached) net = std::move(hit_net);
  return res;
}

}  // namespace l2l::api
