#include "workload.hh"

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/logging.hh"
#include "common/rng.hh"
#include "pmds/kv_store.hh"
#include "pmds/pm_array.hh"
#include "pmds/pm_hashmap.hh"
#include "pmds/pm_queue.hh"
#include "pmds/pm_rbtree.hh"
#include "pmds/tatp.hh"
#include "pmds/tpcc.hh"
#include "pmds/vacation.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"
#include "runtime/virtual_os.hh"
#include "workloads/trace_recorder.hh"

namespace pmemspec::workloads
{

using persistency::LogicalTrace;
using runtime::FaseRuntime;
using runtime::PersistentMemory;
using runtime::RecoveryPolicy;
using runtime::Transaction;
using runtime::VirtualOs;

const char *
benchName(BenchId id)
{
    switch (id) {
      case BenchId::ArraySwaps: return "ArraySwaps";
      case BenchId::Queue:      return "Queue";
      case BenchId::Hashmap:    return "Hashmap";
      case BenchId::RbTree:     return "RB-Tree";
      case BenchId::Tatp:       return "TATP";
      case BenchId::Tpcc:       return "TPCC";
      case BenchId::Vacation:   return "Vacation";
      case BenchId::Memcached:  return "Memcached";
    }
    return "unknown";
}

std::vector<BenchId>
allBenchmarks()
{
    return {BenchId::ArraySwaps, BenchId::Queue, BenchId::Hashmap,
            BenchId::RbTree, BenchId::Tatp, BenchId::Tpcc,
            BenchId::Vacation, BenchId::Memcached};
}

bool
benchFromName(const std::string &name, BenchId &out)
{
    for (BenchId b : allBenchmarks()) {
        if (name == benchName(b)) {
            out = b;
            return true;
        }
    }
    return false;
}

namespace
{

/** Shared scaffolding: PM + OS + runtime + recorder. */
struct GenContext
{
    /** Undo-log bytes per thread; the logs come first in the arena,
     *  after its 64 B null guard. */
    static constexpr std::size_t logBytes = 1 << 16;

    /** Arena bytes for the guard, the logs and @p data_bytes: the
     *  sum of the footprints of the structures the generator builds
     *  (the logs end block-aligned, as allocBound() needs). */
    static std::size_t
    arenaBytes(unsigned num_threads, std::size_t data_bytes)
    {
        return 64 + num_threads * logBytes + data_bytes;
    }

    GenContext(std::size_t pm_bytes, unsigned num_threads,
               runtime::LogGranularity granularity =
                   runtime::LogGranularity::Block)
        : pm(pm_bytes),
          rt(pm, os, num_threads, RecoveryPolicy::Lazy, logBytes,
             granularity)
    {
    }

    /** Attach the recorder (after setup writes). */
    void
    startRecording(unsigned num_threads)
    {
        pm.persistAll();
        rec = std::make_unique<TraceRecorder>(pm, num_threads);
        for (unsigned t = 0; t < num_threads; ++t) {
            auto [base, len] = rt.logRegion(t);
            rec->addLogRegion(base, len);
        }
    }

    /**
     * One recorded FASE on thread t holding `locks` (must already be
     * sorted ascending and deduplicated).
     */
    void
    fase(unsigned t, const std::vector<unsigned> &locks,
         const FaseRuntime::FaseFn &fn, std::uint64_t think_cycles = 80)
    {
        rec->setThread(t);
        rec->compute(think_cycles);
        rec->faseBegin();
        for (unsigned l : locks)
            rec->lockAcq(l);
        rt.runFase(t, fn);
        rec->faseEnd();
        for (auto it = locks.rbegin(); it != locks.rend(); ++it)
            rec->lockRel(*it);
    }

    /** The recorded traces; reports the arena's use to @p arena. */
    std::vector<LogicalTrace>
    finish(ArenaUse *arena)
    {
        if (arena)
            *arena = ArenaUse{pm.size(), pm.size() - pm.remaining()};
        return rec->takeTraces();
    }

    PersistentMemory pm;
    VirtualOs os;
    FaseRuntime rt;
    std::unique_ptr<TraceRecorder> rec;
};

constexpr unsigned numStripes = 64;

std::vector<LogicalTrace>
genArraySwaps(const WorkloadParams &p, ArenaUse *arena)
{
    // As in DPO/HOPS, each thread owns a private array instance:
    // microbenchmark FASEs have (almost) no inter-thread dependency
    // (Section 8.4 cites this as why store misspeculation is rare).
    // The benchmark's total footprint is fixed (the paper scales
    // threads, not data), so per-thread slices shrink with threads.
    const std::size_t elems =
        std::max<std::size_t>(1 << 10, (std::size_t{1} << 17) /
                                           p.numThreads);
    GenContext ctx(GenContext::arenaBytes(
                       p.numThreads,
                       p.numThreads * pmds::PmArray::footprint(elems, 64)),
                   p.numThreads);
    Rng rng(p.seed);
    std::vector<std::unique_ptr<pmds::PmArray>> arrays;
    for (unsigned t = 0; t < p.numThreads; ++t) {
        arrays.push_back(
            std::make_unique<pmds::PmArray>(ctx.pm, elems, 64));
        for (std::size_t i = 0; i < elems; ++i)
            arrays[t]->init(i, i);
    }
    ctx.startRecording(p.numThreads);

    for (std::uint64_t op = 0; op < p.opsPerThread; ++op) {
        for (unsigned t = 0; t < p.numThreads; ++t) {
            pmds::PmArray &arr = *arrays[t];
            std::size_t i = rng.below(elems);
            std::size_t j = rng.below(elems);
            if (i == j)
                j = (j + 1) % elems;
            ctx.fase(t, {},
                     [&](Transaction &tx) { arr.swap(tx, i, j); });
        }
    }
    return ctx.finish(arena);
}

std::vector<LogicalTrace>
genQueue(const WorkloadParams &p, ArenaUse *arena)
{
    // Per-thread queue instances (DPO/HOPS methodology). Each
    // enqueue allocates a node, so the operations are drawn first and
    // their enqueues size the arena.
    Rng rng(p.seed);
    std::vector<bool> enqs(p.opsPerThread * p.numThreads);
    std::vector<std::uint64_t> thread_enqs(p.numThreads, 0);
    for (std::uint64_t op = 0; op < p.opsPerThread; ++op) {
        for (unsigned t = 0; t < p.numThreads; ++t) {
            // Bias towards enqueue so the queue stays non-trivial.
            const bool enq = (op + t) % 2 == 0 || rng.chance(0.1);
            enqs[op * p.numThreads + t] = enq;
            thread_enqs[t] += enq;
        }
    }
    std::size_t data_bytes = 0;
    for (std::uint64_t n : thread_enqs)
        data_bytes += pmds::PmQueue::footprint(64, n);
    GenContext ctx(GenContext::arenaBytes(p.numThreads, data_bytes),
                   p.numThreads);
    std::vector<std::unique_ptr<pmds::PmQueue>> queues;
    for (unsigned t = 0; t < p.numThreads; ++t)
        queues.push_back(std::make_unique<pmds::PmQueue>(ctx.pm, 64));
    ctx.startRecording(p.numThreads);

    for (std::uint64_t op = 0; op < p.opsPerThread; ++op) {
        for (unsigned t = 0; t < p.numThreads; ++t) {
            pmds::PmQueue &q = *queues[t];
            const bool enq = enqs[op * p.numThreads + t];
            ctx.fase(t, {}, [&](Transaction &tx) {
                if (enq)
                    q.enqueue(tx, op * p.numThreads + t);
                else
                    q.dequeue(tx);
            });
        }
    }
    return ctx.finish(arena);
}

std::vector<LogicalTrace>
genHashmap(const WorkloadParams &p, ArenaUse *arena)
{
    // Per-thread hashmap + record-table instances over a fixed
    // total footprint.
    const std::size_t key_space = std::max<std::size_t>(
        1 << 10, (std::size_t{1} << 16) / p.numThreads);
    const std::size_t buckets =
        std::max<std::size_t>(256, key_space / 4);
    GenContext ctx(GenContext::arenaBytes(
                       p.numThreads,
                       p.numThreads *
                           (pmds::PmHashmap::footprint(buckets, key_space) +
                            pmds::PmArray::footprint(key_space, 64))),
                   p.numThreads);
    Rng rng(p.seed);
    struct Inst
    {
        pmds::PmHashmap hm;
        pmds::PmArray records;
    };
    std::vector<std::unique_ptr<Inst>> insts;
    for (unsigned t = 0; t < p.numThreads; ++t) {
        insts.push_back(std::unique_ptr<Inst>(new Inst{
            pmds::PmHashmap(ctx.pm, buckets),
            pmds::PmArray(ctx.pm, key_space, 64)}));
        // Pre-populate half the key space.
        for (std::uint64_t k = 0; k < key_space; k += 2) {
            ctx.rt.runFase(0, [&](Transaction &tx) {
                insts[t]->hm.put(tx, k, k + 1);
            });
        }
    }
    ctx.startRecording(p.numThreads);

    for (std::uint64_t op = 0; op < p.opsPerThread; ++op) {
        for (unsigned t = 0; t < p.numThreads; ++t) {
            Inst &in = *insts[t];
            const std::uint64_t key = rng.below(key_space);
            const bool update = rng.chance(0.5);
            ctx.fase(t, {}, [&](Transaction &tx) {
                if (update) {
                    in.hm.put(tx, key, op);
                    // The paper's FASEs move 64B of data: update the
                    // key's record row alongside the index.
                    std::uint8_t row[64];
                    std::memset(row, static_cast<int>(op & 0xff),
                                sizeof(row));
                    tx.write(in.records.elemAddr(key), row,
                             sizeof(row));
                } else {
                    auto v = in.hm.get(tx, key);
                    if (v) {
                        std::uint8_t row[64];
                        tx.read(in.records.elemAddr(key), row,
                                sizeof(row));
                    }
                }
            });
        }
    }
    return ctx.finish(arena);
}

std::vector<LogicalTrace>
genRbTree(const WorkloadParams &p, ArenaUse *arena)
{
    // Per-thread red-black tree instances over a fixed total
    // footprint. A tree allocates a node per insert of an absent key
    // and never reuses an erased one, so the operations are drawn
    // first and replayed against each tree's key set to size the
    // arena.
    const std::uint64_t key_space = std::max<std::uint64_t>(
        1 << 9, (std::uint64_t{1} << 15) / p.numThreads);
    struct Op
    {
        std::uint64_t key;
        bool ins;
    };
    Rng rng(p.seed);
    std::vector<Op> ops(p.opsPerThread * p.numThreads);
    std::vector<std::vector<bool>> present(
        p.numThreads, std::vector<bool>(key_space + 1, false));
    std::vector<std::size_t> inserts(p.numThreads, 0);
    for (unsigned t = 0; t < p.numThreads; ++t) {
        for (std::uint64_t k = 1; k < key_space; k += 2) {
            present[t][k] = true;
            ++inserts[t];
        }
    }
    for (std::uint64_t op = 0; op < p.opsPerThread; ++op) {
        for (unsigned t = 0; t < p.numThreads; ++t) {
            Op &o = ops[op * p.numThreads + t];
            o.key = 1 + rng.below(key_space);
            o.ins = rng.chance(0.5);
            if (o.ins && !present[t][o.key])
                ++inserts[t];
            present[t][o.key] = o.ins;
        }
    }
    std::size_t data_bytes = 0;
    for (std::size_t n : inserts)
        data_bytes += pmds::PmRbTree::footprint(n);
    GenContext ctx(GenContext::arenaBytes(p.numThreads, data_bytes),
                   p.numThreads);
    std::vector<std::unique_ptr<pmds::PmRbTree>> trees;
    for (unsigned t = 0; t < p.numThreads; ++t) {
        trees.push_back(std::make_unique<pmds::PmRbTree>(ctx.pm));
        for (std::uint64_t k = 1; k < key_space; k += 2) {
            ctx.rt.runFase(0, [&](Transaction &tx) {
                trees[t]->insert(tx, k, k);
            });
        }
    }
    ctx.startRecording(p.numThreads);

    for (std::uint64_t op = 0; op < p.opsPerThread; ++op) {
        for (unsigned t = 0; t < p.numThreads; ++t) {
            pmds::PmRbTree &tree = *trees[t];
            const Op &o = ops[op * p.numThreads + t];
            ctx.fase(t, {}, [&](Transaction &tx) {
                if (o.ins)
                    tree.insert(tx, o.key, op);
                else
                    tree.erase(tx, o.key);
            });
        }
    }
    return ctx.finish(arena);
}

std::vector<LogicalTrace>
genTatp(const WorkloadParams &p, ArenaUse *arena)
{
    // One shared subscriber table; each thread updates a disjoint
    // subscriber range (rows are one cache block each, so the
    // partitioning is race-free without locks). The index is only
    // read during the measured phase.
    const std::size_t subscribers = 65536;
    GenContext ctx(GenContext::arenaBytes(
                       p.numThreads, pmds::TatpDb::footprint(subscribers)),
                   p.numThreads);
    Rng rng(p.seed);
    pmds::TatpDb db(ctx.pm, subscribers);
    ctx.startRecording(p.numThreads);

    const std::size_t per_thread = subscribers / p.numThreads;
    for (std::uint64_t op = 0; op < p.opsPerThread; ++op) {
        for (unsigned t = 0; t < p.numThreads; ++t) {
            const std::uint64_t s_id =
                t * per_thread + rng.below(per_thread);
            const std::uint64_t sub_nbr =
                s_id * 2654435761ULL % (1ULL << 40);
            const auto loc =
                static_cast<std::uint32_t>(rng.next());
            ctx.fase(t, {}, [&](Transaction &tx) {
                db.updateLocation(tx, sub_nbr, loc);
            }, 150);
        }
    }
    return ctx.finish(arena);
}

std::vector<LogicalTrace>
genTpcc(const WorkloadParams &p, ArenaUse *arena)
{
    // Terminal-per-district, as in TPC-C: thread t drives district
    // t (districts >= threads), and line items are drawn from a
    // per-district item partition so new-order transactions from
    // different terminals never conflict (microbenchmark style).
    pmds::TpccConfig tc;
    tc.districts = std::max(10u, p.numThreads);
    tc.maxOrders = static_cast<unsigned>(
        tc.districts * (p.opsPerThread + 64));
    GenContext ctx(GenContext::arenaBytes(p.numThreads,
                                          pmds::TpccDb::footprint(tc)),
                   p.numThreads);
    Rng rng(p.seed);
    pmds::TpccDb db(ctx.pm, tc);
    ctx.startRecording(p.numThreads);

    const unsigned items_per_d = tc.items / tc.districts;
    for (std::uint64_t op = 0; op < p.opsPerThread; ++op) {
        for (unsigned t = 0; t < p.numThreads; ++t) {
            const unsigned district = t;
            const unsigned customer = static_cast<unsigned>(
                rng.below(tc.customersPerDistrict));
            const unsigned n =
                static_cast<unsigned>(rng.range(5, 15));
            std::vector<pmds::OrderLineReq> lines(n);
            for (auto &l : lines) {
                l.itemId = district * items_per_d +
                           static_cast<std::uint32_t>(
                               rng.below(items_per_d));
                l.quantity =
                    static_cast<std::uint32_t>(rng.range(1, 10));
            }
            ctx.fase(t, {}, [&](Transaction &tx) {
                db.newOrder(tx, district, customer, lines);
            }, 300);
        }
    }
    return ctx.finish(arena);
}

std::vector<LogicalTrace>
genVacation(const WorkloadParams &p, ArenaUse *arena)
{
    pmds::VacationConfig vc;
    vc.resourcesPerTable = 1 << 13;
    vc.customers = 4096;
    vc.numQueries = 8;
    vc.partitionsPerTable = 16;
    // Each FASE makes at most one reservation.
    const std::uint64_t total_ops = p.opsPerThread * p.numThreads;
    GenContext ctx(GenContext::arenaBytes(
                       p.numThreads,
                       pmds::VacationDb::footprint(vc, total_ops)),
                   p.numThreads, runtime::LogGranularity::Word);
    Rng rng(p.seed);
    pmds::VacationDb db(ctx.pm, vc);
    ctx.startRecording(p.numThreads);

    // Lock ids: partition locks are kind*P+part (0..47); customer
    // stripes start at 100 (eight heads share a block, so stripe by
    // block for block-level DRF).
    constexpr unsigned cust_lock_base = 100;
    const unsigned P = vc.partitionsPerTable;
    for (std::uint64_t op = 0; op < p.opsPerThread; ++op) {
        for (unsigned t = 0; t < p.numThreads; ++t) {
            const std::uint64_t customer =
                rng.below(vc.customers);
            const auto cust_stripe = static_cast<unsigned>(
                cust_lock_base + (customer / 8) % numStripes);
            const auto kind =
                static_cast<pmds::ResourceKind>(rng.below(3));
            const unsigned kind_base =
                static_cast<unsigned>(kind) * P;
            if (rng.chance(0.9)) {
                // MAKE_RESERVATION over numQueries candidates.
                std::vector<std::uint64_t> cands(vc.numQueries);
                std::vector<unsigned> locks{cust_stripe};
                for (auto &id : cands) {
                    id = rng.below(vc.resourcesPerTable);
                    locks.push_back(kind_base + db.partitionOf(id));
                }
                std::sort(locks.begin(), locks.end());
                locks.erase(std::unique(locks.begin(), locks.end()),
                            locks.end());
                ctx.fase(t, locks, [&](Transaction &tx) {
                    db.makeReservation(tx, kind, cands, customer);
                }, 400);
            } else {
                // UPDATE_TABLES: reprice one resource.
                const std::uint64_t id =
                    rng.below(vc.resourcesPerTable);
                const auto price = static_cast<std::uint32_t>(
                    50 + rng.below(800));
                ctx.fase(t, {kind_base + db.partitionOf(id)},
                         [&](Transaction &tx) {
                             db.updateTables(tx, kind, id, price);
                         },
                         200);
            }
        }
    }
    return ctx.finish(arena);
}

std::vector<LogicalTrace>
genMemcached(const WorkloadParams &p, ArenaUse *arena)
{
    pmds::KvConfig kc;
    kc.buckets = 1 << 13;
    kc.valueBytes = 1024; // paper: memcached data size is 1024B
    const std::size_t key_space = 1 << 13;
    // Mnemosyne-style word-granular logging, as in the real port.
    GenContext ctx(GenContext::arenaBytes(
                       p.numThreads, pmds::KvStore::footprint(kc, key_space)),
                   p.numThreads, runtime::LogGranularity::Word);
    Rng rng(p.seed);
    pmds::KvStore kv(ctx.pm, kc);
    // Pre-populate the store.
    for (std::uint64_t k = 0; k < key_space; ++k) {
        ctx.rt.runFase(0, [&](Transaction &tx) {
            kv.set(tx, k, static_cast<std::uint8_t>(k));
        });
    }
    ctx.startRecording(p.numThreads);

    // memcached's global cache lock serialises item and LRU updates.
    const unsigned cache_lock = 0;
    for (std::uint64_t op = 0; op < p.opsPerThread; ++op) {
        for (unsigned t = 0; t < p.numThreads; ++t) {
            const std::uint64_t key = rng.below(key_space);
            const bool is_set = rng.chance(0.5);
            ctx.fase(t, {cache_lock}, [&](Transaction &tx) {
                if (is_set)
                    kv.set(tx, key,
                           static_cast<std::uint8_t>(op & 0xff));
                else
                    kv.get(tx, key);
            }, 250);
        }
    }
    return ctx.finish(arena);
}

} // namespace

std::vector<LogicalTrace>
generateTraces(BenchId id, const WorkloadParams &params, ArenaUse *arena)
{
    fatal_if(params.numThreads == 0 || params.opsPerThread == 0,
             "bad workload params");
    switch (id) {
      case BenchId::ArraySwaps: return genArraySwaps(params, arena);
      case BenchId::Queue:      return genQueue(params, arena);
      case BenchId::Hashmap:    return genHashmap(params, arena);
      case BenchId::RbTree:     return genRbTree(params, arena);
      case BenchId::Tatp:       return genTatp(params, arena);
      case BenchId::Tpcc:       return genTpcc(params, arena);
      case BenchId::Vacation:   return genVacation(params, arena);
      case BenchId::Memcached:  return genMemcached(params, arena);
    }
    panic("unknown benchmark id");
}

} // namespace pmemspec::workloads
