#include "workloads.hpp"

#include <cstring>
#include <exception>
#include <stdexcept>
#include <utility>

#include "apps/bzip2/bzip2.hpp"
#include "apps/dedup/dedup.hpp"
#include "trace.hpp"
#include "util/datagen.hpp"
#include "util/mbzip.hpp"
#include "util/sha1.hpp"

namespace perfbench {

namespace {

namespace pipe = hq::pipe;
using trace::stamped;

// ---- copying the app's stage kinds and edge options ------------------------

std::size_t stage_index(const pipe::graph& g, const std::string& name) {
  for (std::size_t i = 0; i < g.num_stages(); ++i)
    if (g.stage_at(i).name == name) return i;
  throw std::logic_error("app graph has no stage '" + name + "'");
}

pipe::stage_kind kind_of(const pipe::graph& app, const std::string& name) {
  return app.stage_at(stage_index(app, name)).kind;
}

pipe::edge_opts opts_of(const pipe::graph& app, const std::string& from,
                        const std::string& to) {
  const std::size_t f = stage_index(app, from);
  const std::size_t t = stage_index(app, to);
  for (std::size_t i = 0; i < app.num_edges(); ++i) {
    const auto& e = app.edge_at(i);
    if (e.from == f && e.to == t) return e.opts;
  }
  throw std::logic_error("app graph has no edge " + from + " -> " + to);
}

void put_u32(bytes* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(bytes* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// An instance whose stages append to a plain byte buffer.
struct buffer_instance final : instance {
  [[nodiscard]] bytes output() const override { return out; }
  bytes out;
};

// ---- bzip2-coarse ----------------------------------------------------------

class bzip2_coarse final : public workload {
 public:
  bzip2_coarse(std::uint64_t seed, scale s) {
    cfg_.input_bytes = s == scale::full ? 4u << 20 : 256u << 10;
    cfg_.block_bytes = 32u << 10;
    cfg_.seed = seed;
    input_ = hq::util::gen_text(cfg_.input_bytes, seed);
  }

  [[nodiscard]] std::size_t input_bytes() const override { return input_.size(); }

  [[nodiscard]] stage_roles roles() const override {
    return {"read", "compress", "write"};
  }

  [[nodiscard]] std::unique_ptr<instance> describe() const override {
    struct app_instance final : instance {
      [[nodiscard]] bytes output() const override { return r.output; }
      hq::apps::bzip2::result r;
    };
    auto in = std::make_unique<app_instance>();
    hq::apps::bzip2::describe_pipeline(cfg_, input_, &in->r, in->g);
    return in;
  }

  [[nodiscard]] std::unique_ptr<instance> describe_traced(
      const pipe::graph& app) const override {
    struct block {
      std::uint64_t seq = 0;
      bytes data;
    };
    using sblock = stamped<block>;
    auto in = std::make_unique<buffer_instance>();
    bytes* out = &in->out;
    pipe::graph& g = in->g;
    // Same stream as the app: a block-count header, then (length, payload)
    // per block in input order.
    auto read = g.source<sblock>("read", [this, out](pipe::emit<sblock> e) {
      trace::scope sp(0, 0, -1);
      const std::size_t bs = cfg_.block_bytes;
      put_u32(out, static_cast<std::uint32_t>((input_.size() + bs - 1) / bs));
      std::uint64_t seq = 0;
      for (std::size_t off = 0; off < input_.size(); off += bs, ++seq) {
        const auto first = input_.begin() + static_cast<std::ptrdiff_t>(off);
        const std::size_t len = std::min(bs, input_.size() - off);
        trace::emit(e, 0, block{seq, bytes(first, first + static_cast<std::ptrdiff_t>(len))},
                    seq);
      }
    });
    auto compress = g.stage<sblock, sblock>(
        "compress", kind_of(app, "compress"), [](sblock&& t, pipe::emit<sblock> e) {
          trace::scope sp(1, t.seq, t.emit);
          t.v.data = hq::util::mbzip_compress_block(t.v.data.data(), t.v.data.size());
          trace::emit(e, 1, std::move(t.v), t.seq);
        });
    auto write = g.sink<sblock>("write", kind_of(app, "write"), [out](sblock&& t) {
      trace::scope sp(2, t.seq, t.emit);
      put_u32(out, static_cast<std::uint32_t>(t.v.data.size()));
      out->insert(out->end(), t.v.data.begin(), t.v.data.end());
    });
    g.connect(read, compress, opts_of(app, "read", "compress"));
    g.connect(compress, write, opts_of(app, "compress", "write"));
    return in;
  }

  [[nodiscard]] std::string check_reference(const bytes& out) const override {
    try {
      if (hq::util::mbzip_decompress(out.data(), out.size()) != input_)
        return "mbzip_decompress(output) differs from the input";
    } catch (const std::exception& e) {
      return std::string("mbzip_decompress failed: ") + e.what();
    }
    return {};
  }

 private:
  hq::apps::bzip2::config cfg_;
  bytes input_;
};

// ---- dedup-nested ----------------------------------------------------------

class dedup_nested final : public workload {
 public:
  dedup_nested(std::uint64_t seed, scale s) {
    cfg_.input_bytes = s == scale::full ? 8u << 20 : 512u << 10;
    cfg_.dup_fraction = 0.5;
    cfg_.coarse_bytes = 64u << 10;
    cfg_.fine_avg_log2 = 11;  // ~2 KiB fine chunks
    cfg_.fine_min = 256;
    cfg_.fine_max = 8u << 10;
    cfg_.seed = seed;
    input_ = hq::util::gen_archive(cfg_.input_bytes, cfg_.dup_fraction, seed);
  }

  [[nodiscard]] std::size_t input_bytes() const override { return input_.size(); }

  [[nodiscard]] stage_roles roles() const override {
    return {"fragment", "dedup_compress", "output"};
  }

  [[nodiscard]] std::unique_ptr<instance> describe() const override {
    struct app_instance final : instance {
      [[nodiscard]] bytes output() const override { return r.output; }
      hq::apps::dedup::dedup_table table;
      hq::apps::dedup::result r;
    };
    auto in = std::make_unique<app_instance>();
    hq::apps::dedup::describe_pipeline(cfg_, input_, &in->table, &in->r, in->g);
    return in;
  }

  [[nodiscard]] std::unique_ptr<instance> describe_traced(
      const pipe::graph& app) const override {
    namespace dd = hq::apps::dedup;
    struct coarse {
      std::uint64_t seq = 0;
      std::size_t off = 0;
      std::size_t len = 0;
    };
    struct traced_instance final : instance {
      [[nodiscard]] bytes output() const override { return out; }
      dd::dedup_table table;
      bytes out;
    };
    using scoarse = stamped<coarse>;
    using schunk = stamped<dd::chunk_rec>;
    auto in = std::make_unique<traced_instance>();
    dd::dedup_table* table = &in->table;
    bytes* out = &in->out;
    pipe::graph& g = in->g;
    auto fragment = g.source<scoarse>("fragment", [this](pipe::emit<scoarse> e) {
      trace::scope sp(0, 0, -1);
      const auto parts = dd::k_fragment(cfg_, input_.data(), input_.size());
      for (std::size_t i = 0; i < parts.size(); ++i)
        trace::emit(e, 0, coarse{i, parts[i].first, parts[i].second}, i);
    });
    auto refine = g.expand<scoarse, schunk>(
        "refine", kind_of(app, "refine"), [this](scoarse&& t, pipe::emit<schunk> e) {
          trace::scope sp(1, t.seq, t.emit);
          auto chunks = dd::k_refine(cfg_, input_.data(), t.v.off, t.v.len, t.v.seq);
          for (auto& c : chunks) {
            const std::uint64_t seq = (c.coarse_seq << 32) | c.fine_seq;
            trace::emit(e, 1, std::move(c), seq);
          }
        });
    auto dedup_compress = g.stage<schunk, schunk>(
        "dedup_compress", kind_of(app, "dedup_compress"),
        [table](schunk&& t, pipe::emit<schunk> e) {
          trace::scope sp(2, t.seq, t.emit);
          dd::k_dedup(table, &t.v);
          if (t.v.owner) dd::k_compress(&t.v);
          trace::emit(e, 2, std::move(t.v), t.seq);
        });
    auto output = g.sink<schunk>("output", kind_of(app, "output"), [out](schunk&& t) {
      trace::scope sp(3, t.seq, t.emit);
      dd::k_output(out, &t.v);
    });
    g.connect(fragment, refine, opts_of(app, "fragment", "refine"));
    g.connect(refine, dedup_compress, opts_of(app, "refine", "dedup_compress"));
    g.connect(dedup_compress, output, opts_of(app, "dedup_compress", "output"));
    return in;
  }

  [[nodiscard]] std::string check_reference(const bytes& out) const override {
    if (hq::apps::dedup::reassemble(out.data(), out.size()) != input_)
      return "dedup::reassemble(output) differs from the input";
    return {};
  }

 private:
  hq::apps::dedup::config cfg_;
  bytes input_;
};

// ---- records-fine ----------------------------------------------------------

/// One line of the input: its place, then its fingerprint.
struct record {
  std::uint64_t off = 0;
  std::uint32_t len = 0;
  hq::util::sha1_digest digest{};
};

constexpr std::uint64_t kFoldBasis = 0xcbf29ce484222325ull;

/// Order-sensitive fold of one digest into the checksum (FNV-1a over words).
void fold(std::uint64_t* h, const hq::util::sha1_digest& d) {
  for (std::uint32_t w : d.h) {
    *h ^= w;
    *h *= 0x100000001b3ull;
  }
}

/// Calls f(offset, length) for every line of `in`, newline excluded; a last
/// line without a newline counts.
template <typename F>
void for_each_line(const bytes& in, F&& f) {
  std::size_t off = 0;
  while (off < in.size()) {
    const void* nl = std::memchr(in.data() + off, '\n', in.size() - off);
    const std::size_t end =
        nl != nullptr ? static_cast<std::size_t>(static_cast<const std::uint8_t*>(nl) -
                                                 in.data())
                      : in.size();
    f(off, end - off);
    off = end + 1;
  }
}

bytes checksum_bytes(std::uint64_t h, std::uint64_t n) {
  bytes b;
  put_u64(&b, h);
  put_u64(&b, n);
  return b;
}

struct checksum_instance final : instance {
  [[nodiscard]] bytes output() const override { return checksum_bytes(h, n); }
  std::uint64_t h = kFoldBasis;
  std::uint64_t n = 0;
};

class records_fine final : public workload {
 public:
  records_fine(std::uint64_t seed, scale s)
      : input_(hq::util::gen_text(s == scale::full ? 32u << 20 : 1u << 20, seed)) {}

  [[nodiscard]] std::size_t input_bytes() const override { return input_.size(); }

  [[nodiscard]] stage_roles roles() const override {
    return {"read", "fingerprint", "fold"};
  }

  [[nodiscard]] std::unique_ptr<instance> describe() const override {
    auto in = std::make_unique<checksum_instance>();
    checksum_instance* st = in.get();
    pipe::graph& g = in->g;
    auto read = g.source<record>("read", [this](pipe::emit<record> e) {
      for_each_line(input_, [&](std::size_t off, std::size_t len) {
        e(record{off, static_cast<std::uint32_t>(len), {}});
      });
    });
    auto fingerprint = g.stage<record, record>(
        "fingerprint", pipe::stage_kind::parallel, [this](record&& r, pipe::emit<record> e) {
          r.digest = hq::util::sha1(input_.data() + r.off, r.len);
          e(std::move(r));
        });
    auto sink = g.sink<record>("fold", pipe::stage_kind::serial_in_order, [st](record&& r) {
      fold(&st->h, r.digest);
      ++st->n;
    });
    g.connect(read, fingerprint);
    g.connect(fingerprint, sink);
    return in;
  }

  [[nodiscard]] std::unique_ptr<instance> describe_traced(
      const pipe::graph& app) const override {
    using srecord = stamped<record>;
    auto in = std::make_unique<checksum_instance>();
    checksum_instance* st = in.get();
    pipe::graph& g = in->g;
    auto read = g.source<srecord>("read", [this](pipe::emit<srecord> e) {
      trace::scope sp(0, 0, -1);
      std::uint64_t seq = 0;
      for_each_line(input_, [&](std::size_t off, std::size_t len) {
        trace::emit(e, 0, record{off, static_cast<std::uint32_t>(len), {}}, seq++);
      });
    });
    auto fingerprint = g.stage<srecord, srecord>(
        "fingerprint", kind_of(app, "fingerprint"),
        [this](srecord&& t, pipe::emit<srecord> e) {
          trace::scope sp(1, t.seq, t.emit);
          t.v.digest = hq::util::sha1(input_.data() + t.v.off, t.v.len);
          trace::emit(e, 1, std::move(t.v), t.seq);
        });
    auto sink = g.sink<srecord>("fold", kind_of(app, "fold"), [st](srecord&& t) {
      trace::scope sp(2, t.seq, t.emit);
      fold(&st->h, t.v.digest);
      ++st->n;
    });
    g.connect(read, fingerprint, opts_of(app, "read", "fingerprint"));
    g.connect(fingerprint, sink, opts_of(app, "fingerprint", "fold"));
    return in;
  }

  [[nodiscard]] std::string check_reference(const bytes& out) const override {
    std::uint64_t h = kFoldBasis;
    std::uint64_t n = 0;
    for_each_line(input_, [&](std::size_t off, std::size_t len) {
      fold(&h, hq::util::sha1(input_.data() + off, len));
      ++n;
    });
    if (out != checksum_bytes(h, n)) return "checksum differs from a plain loop over the lines";
    return {};
  }

 private:
  bytes input_;
};

}  // namespace

std::unique_ptr<workload> make_workload(const std::string& name, std::uint64_t seed,
                                        scale s) {
  if (name == "bzip2-coarse") return std::make_unique<bzip2_coarse>(seed, s);
  if (name == "dedup-nested") return std::make_unique<dedup_nested>(seed, s);
  if (name == "records-fine") return std::make_unique<records_fine>(seed, s);
  return nullptr;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"bzip2-coarse", "dedup-nested",
                                                 "records-fine"};
  return names;
}

}  // namespace perfbench
