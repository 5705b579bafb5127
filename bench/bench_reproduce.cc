/**
 * @file
 * Every paper figure and table, reproduced by one binary. Each
 * figure declares the pipeline cells it reads and prints its
 * sections from the finished results. main() runs the union of the
 * selected figures' cells as one driver::runSweep, which runs each
 * distinct cell once, then prints every selected report in table
 * order:
 *
 *   bench_reproduce [figure...]
 *
 * No names select every figure. The observability flags of
 * benchutil::initBench (--stats-out=, --bench-json=, ...) apply to
 * the whole run.
 */

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analytic/amat.hh"
#include "bench_util.hh"
#include "driver/artifact_key.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/table.hh"
#include "trace/profile.hh"

using namespace starnuma;
using benchutil::benchScale;
using benchutil::benchWorkloads;
using driver::SweepJob;
using driver::SystemSetup;

namespace
{

/**
 * The finished results of the cells one figure declared. Every read
 * goes through at(), which panics on a cell the figure did not
 * declare, so a report cannot run a pipeline of its own.
 */
class Cells
{
  public:
    Cells(const char *figure_name, const std::vector<SweepJob> &jobs,
          const driver::ExperimentResult *results)
        : figure(figure_name)
    {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            byKey.emplace(keyOf(jobs[i]), &results[i]);
    }

    const driver::ExperimentResult &
    at(const SweepJob &job) const
    {
        auto it = byKey.find(keyOf(job));
        if (it == byKey.end())
            panic("%s reads a cell it did not declare: %s / %s",
                  figure, job.workload.c_str(),
                  job.singleSocket ? "single-socket"
                                   : job.setup.name.c_str());
        return *it->second;
    }

    const driver::ExperimentResult &
    run(const std::string &workload, const SystemSetup &setup,
        const SimScale &scale = benchScale()) const
    {
        return at({workload, setup, scale});
    }

    const driver::RunMetrics &
    singleSocket(const std::string &workload) const
    {
        return at({workload, SystemSetup::baseline(), benchScale(),
                   true})
            .metrics;
    }

    /** Speedup of @p setup over the baseline system. */
    double
    speedup(const std::string &workload, const SystemSetup &setup,
            const SimScale &scale = benchScale()) const
    {
        return run(workload, setup, scale)
            .metrics.speedupOver(
                run(workload, SystemSetup::baseline(), scale)
                    .metrics);
    }

  private:
    static std::string
    keyOf(const SweepJob &job)
    {
        return driver::cellKeyText(job.workload, job.setup, job.scale,
                                   job.singleSocket);
    }

    const char *figure;
    std::map<std::string, const driver::ExperimentResult *> byKey;
};

/** One figure or table: its cells and its report. */
struct Figure
{
    const char *name;
    std::vector<SweepJob> (*cells)();
    void (*report)(const Cells &);
};

std::vector<SweepJob>
noCells()
{
    return {};
}

/** Every bench workload under @p setups at the bench scale. */
std::vector<SweepJob>
acrossWorkloads(const std::vector<SystemSetup> &setups)
{
    return driver::crossJobs(benchWorkloads(), setups, benchScale());
}

std::string
speedupText(double s)
{
    return TextTable::num(s, 2) + "x";
}

// --- Figs 2 and 13: sharing profiles of the captured traces --------

trace::SharingProfile
sharingProfile(const std::string &workload)
{
    SimScale scale = benchScale();
    return trace::SharingProfile(driver::workloadTrace(workload, scale),
                                 scale.coresPerSocket, scale.sockets);
}

void
printSharingTable(const trace::SharingProfile &p,
                  const std::string &title)
{
    TextTable t({"sharers", "pages", "accesses", "RW accesses"});
    for (int d = 1; d <= p.sockets(); ++d) {
        if (p.pageFraction(d) < 0.001 && p.accessFraction(d) < 0.001)
            continue;
        t.addRow({std::to_string(d), TextTable::pct(p.pageFraction(d)),
                  TextTable::pct(p.accessFraction(d)),
                  TextTable::pct(p.readWriteAccessFraction(d))});
    }
    benchutil::printSection(title, t.str());
}

/**
 * Fig 2: BFS page sharing-degree and access distributions, with
 * the read-write classification and §II-B's derived quantities.
 */
void
reportFig02(const Cells &)
{
    trace::SharingProfile p = sharingProfile("bfs");
    printSharingTable(
        p, "Fig 2: BFS page sharing degree and access distributions");

    TextTable s({"quantity", "measured", "paper"});
    s.addRow({"pages with <= 4 sharers",
              TextTable::pct(p.pagesWithAtMost(4)), "78%"});
    s.addRow({"pages with > 8 sharers",
              TextTable::pct(1.0 - p.pagesWithAtMost(8)), "7%"});
    s.addRow({"accesses to > 8-sharer pages",
              TextTable::pct(p.accessesAbove(8)), "68%"});
    s.addRow({"accesses to 16-sharer pages",
              TextTable::pct(p.accessFraction(16)), "36%"});
    s.addRow({"inter-chassis share (uniform, Sec II-B)",
              TextTable::pct(
                  trace::SharingProfile::interChassisFraction(16, 4)),
              "75%"});
    benchutil::printSection("Fig 2 summary vs paper", s.str());
}

/**
 * Fig 13: TC's distributions, the other end of the spectrum from
 * BFS, and §V-F's replication-vs-pooling quantities for both.
 */
void
reportFig13(const Cells &)
{
    trace::SharingProfile p = sharingProfile("tc");
    printSharingTable(
        p, "Fig 13: TC page sharing degree and access distributions");

    trace::SharingProfile bfs = sharingProfile("bfs");
    TextTable s({"quantity", "TC", "BFS", "paper (TC)"});
    s.addRow({"pages touched by 16 sockets",
              TextTable::pct(p.pageFraction(16)),
              TextTable::pct(bfs.pageFraction(16)), "60%"});
    s.addRow({"pages touched by 8+ sockets",
              TextTable::pct(1.0 - p.pagesWithAtMost(7)),
              TextTable::pct(1.0 - bfs.pagesWithAtMost(7)), "80%"});
    s.addRow({"RW share of accesses to 16-sharer pages",
              TextTable::pct(p.readWriteAccessFraction(16)),
              TextTable::pct(bfs.readWriteAccessFraction(16)),
              "~0% (read-only)"});
    benchutil::printSection(
        "Sec V-F: replication vs pooling — TC is read-only shared "
        "but capacity-heavy; BFS is read-write shared",
        s.str());
}

// --- Figs 3 and 4: analytic latencies ------------------------------

/** Fig 3: CXL pool latency breakdown, and §II-C's AMAT estimate. */
void
reportFig03(const Cells &)
{
    for (auto cfg : {topology::SystemConfig::starnuma16(),
                     topology::SystemConfig::starnumaSwitched()}) {
        TextTable t({"component", "roundtrip ns"});
        double sum = 0;
        for (const auto &part : analytic::cxlLatencyBreakdown(cfg)) {
            t.addRow({part.name, TextTable::num(part.ns, 0)});
            sum += part.ns;
        }
        t.addRow({"total CXL overhead", TextTable::num(sum, 0)});
        t.addRow({"+ on-processor + DRAM",
                  TextTable::num(cfg.localNs(), 0)});
        t.addRow({"end-to-end pool access",
                  TextTable::num(analytic::poolAccessLatencyNs(cfg),
                                 0)});
        benchutil::printSection(
            "Fig 3: pool access latency breakdown (" + cfg.name +
                ")",
            t.str());
    }

    auto cfg = topology::SystemConfig::starnuma16();
    TextTable e({"placement", "first-order AMAT ns", "paper"});
    e.addRow({"baseline (36% fully shared)",
              TextTable::num(
                  analytic::firstOrderAmatNs(cfg, 0.36, false), 0),
              "160"});
    e.addRow({"pool for inter-chassis share",
              TextTable::num(
                  analytic::firstOrderAmatNs(cfg, 0.36, true), 0),
              "112"});
    benchutil::printSection("Sec II-C first-order AMAT estimate",
                            e.str());
}

/**
 * Fig 4 / §III-C: average unloaded 3-hop block transfer over all
 * socket combinations vs the 4-hop via-pool path.
 */
void
reportFig04(const Cells &)
{
    topology::Topology topo(topology::SystemConfig::starnuma16());
    double three = analytic::averageThreeHopNs(topo);
    double four = analytic::fourHopViaPoolNs(topo);

    TextTable t({"transfer", "network ns", "+80 ns mem/dir",
                 "paper"});
    t.addRow({"3-hop socket home (avg all R,H,O)",
              TextTable::num(three, 0),
              TextTable::num(three + 80, 0), "333 / 413"});
    t.addRow({"4-hop via pool", TextTable::num(four, 0),
              TextTable::num(four + 80, 0), "200 / 280"});
    benchutil::printSection(
        "Fig 4: coherence block-transfer latencies", t.str());

    TextTable v({"check", "result"});
    v.addRow({"4-hop via pool faster than 3-hop average",
              four < three ? "yes (paper: yes)" : "NO"});
    benchutil::printSection("Sec III-C conclusion", v.str());
}

// --- Table III: workload summary ------------------------------------

std::vector<SweepJob>
cellsTable3()
{
    std::vector<SweepJob> jobs =
        acrossWorkloads({SystemSetup::baseline()});
    for (const auto &w : benchWorkloads())
        jobs.push_back({w, SystemSetup::baseline(), benchScale(),
                        /*singleSocket=*/true});
    return jobs;
}

/**
 * Table III: per-core IPC on the baseline 16-socket system and for
 * single-socket execution with local memory, and LLC MPKI.
 */
void
reportTable3(const Cells &cells)
{
    // Paper Table III values for reference: IPC-16s (IPC-1s) MPKI.
    struct Ref
    {
        const char *w;
        const char *paper;
    };
    const Ref refs[] = {
        {"sssp", "0.06 (0.56)  73"}, {"bfs", "0.10 (0.69)  32"},
        {"cc", "0.14 (0.78)  17"},   {"tc", "0.40 (1.7)  3.2"},
        {"masstree", "0.18 (0.89)  15"},
        {"tpcc", "0.41 (1.12)  4.8"}, {"fmi", "0.61 (1.45)  2.6"},
        {"poa", "0.68 (0.68)  33"}};

    TextTable t({"workload", "IPC 16-socket", "IPC 1-socket",
                 "gap", "LLC MPKI", "paper: IPC (1s) MPKI"});
    for (const auto &w : benchWorkloads()) {
        const auto &multi = cells.run(w, SystemSetup::baseline()).metrics;
        const auto &single = cells.singleSocket(w);
        benchutil::recordResult("table3.ipc_16s." + w, multi.ipc);
        benchutil::recordResult("table3.ipc_1s." + w, single.ipc);
        benchutil::recordResult("table3.mpki." + w, multi.llcMpki);
        std::string paper = "-";
        for (const auto &r : refs)
            if (w == r.w)
                paper = r.paper;
        t.addRow({w, TextTable::num(multi.ipc, 3),
                  TextTable::num(single.ipc, 3),
                  TextTable::num(single.ipc /
                                     std::max(multi.ipc, 1e-9),
                                 1) + "x",
                  TextTable::num(multi.llcMpki, 1), paper});
    }
    benchutil::printSection(
        "Table III: workload summary (baseline 16-socket vs "
        "single socket)",
        t.str());
}

// --- Fig 8: main results --------------------------------------------

std::vector<SweepJob>
cellsFig08()
{
    return acrossWorkloads({SystemSetup::baseline(),
                            SystemSetup::starnuma(),
                            SystemSetup::starnumaT0()});
}

/**
 * Fig 8: (a) StarNUMA T16/T0 speedup over the baseline, (b) AMAT
 * split into unloaded latency and contention, (c) the access mix;
 * plus §V-A's coherence-rate observation.
 */
void
reportFig08(const Cells &cells)
{
    auto base = SystemSetup::baseline();
    auto star = SystemSetup::starnuma();
    auto star0 = SystemSetup::starnumaT0();

    // (a) speedups
    {
        TextTable t({"workload", "StarNUMA T16", "StarNUMA T0"});
        std::vector<double> t16, t0;
        for (const auto &w : benchWorkloads()) {
            double s16 = cells.speedup(w, star);
            double s0 = cells.speedup(w, star0);
            t16.push_back(s16);
            t0.push_back(s0);
            benchutil::recordResult("fig08.speedup_t16." + w, s16);
            benchutil::recordResult("fig08.speedup_t0." + w, s0);
            t.addRow({w, speedupText(s16), speedupText(s0)});
        }
        benchutil::recordResult("fig08.speedup_t16.geomean",
                                stats::geomean(t16));
        benchutil::recordResult("fig08.speedup_t0.geomean",
                                stats::geomean(t0));
        t.addRow({"geomean", speedupText(stats::geomean(t16)),
                  speedupText(stats::geomean(t0))});
        benchutil::printSection(
            "Fig 8a: speedup over baseline (paper: 1.54x geomean "
            "T16, 1.35x T0)",
            t.str());
    }

    // (b) AMAT decomposition
    {
        TextTable t({"workload", "system", "AMAT ns",
                     "unloaded ns", "contention ns"});
        for (const auto &w : benchWorkloads()) {
            for (const auto *setup : {&base, &star}) {
                const auto &m = cells.run(w, *setup).metrics;
                t.addRow({w,
                          setup->sys.hasPool ? "StarNUMA"
                                             : "Baseline",
                          TextTable::num(m.amatNs(), 0),
                          TextTable::num(m.unloadedAmatNs(), 0),
                          TextTable::num(m.contentionNs(), 0)});
            }
        }
        benchutil::printSection(
            "Fig 8b: AMAT = unloaded latency + contention delay "
            "(paper: 48% average AMAT reduction)",
            t.str());
    }

    // (c) access mix
    {
        TextTable t({"workload", "system", "local", "1-hop",
                     "2-hop", "pool", "BT_Sock", "BT_Pool"});
        for (const auto &w : benchWorkloads()) {
            for (const auto *setup : {&base, &star}) {
                const auto &m = cells.run(w, *setup).metrics;
                std::vector<std::string> row{
                    w, setup->sys.hasPool ? "StarNUMA"
                                          : "Baseline"};
                for (int i = 0; i < driver::accessTypes; ++i)
                    row.push_back(TextTable::pct(m.mix[i], 1));
                t.addRow(row);
            }
        }
        benchutil::printSection("Fig 8c: memory access breakdown",
                                t.str());
    }

    // §V-A coherence-rate observation.
    {
        TextTable t({"workload", "dir transactions",
                     "BT fraction of accesses"});
        for (const auto &w : benchWorkloads()) {
            const auto &m = cells.run(w, star).metrics;
            double bt =
                m.mix[static_cast<int>(
                    driver::AccessType::BtSocket)] +
                m.mix[static_cast<int>(driver::AccessType::BtPool)];
            t.addRow({w,
                      std::to_string(m.coherenceTransactions),
                      TextTable::pct(bt, 1)});
        }
        benchutil::printSection(
            "Sec V-A: coherence activity on StarNUMA", t.str());
    }
}

// --- Table IV: migrations to the pool -------------------------------

std::vector<SweepJob>
cellsTable4()
{
    return acrossWorkloads({SystemSetup::starnuma()});
}

/** Table IV: the fraction of StarNUMA's migrations into the pool. */
void
reportTable4(const Cells &cells)
{
    struct Ref
    {
        const char *w;
        const char *paper;
    };
    const Ref refs[] = {{"sssp", "80%"}, {"bfs", "100%"},
                        {"cc", "99%"},   {"tc", "80%"},
                        {"masstree", "100%"}, {"tpcc", "93%"},
                        {"fmi", "47%"},  {"poa", "0%"}};

    TextTable t({"workload", "migrations to pool", "pages in pool",
                 "victim evictions", "paper"});
    std::vector<double> nonzero;
    for (const auto &w : benchWorkloads()) {
        const auto &p = cells.run(w, SystemSetup::starnuma()).placement;
        std::string paper = "-";
        for (const auto &r : refs)
            if (w == r.w)
                paper = r.paper;
        if (p.poolMigrationFraction > 0)
            nonzero.push_back(p.poolMigrationFraction);
        t.addRow({w, TextTable::pct(p.poolMigrationFraction, 0),
                  std::to_string(p.pagesInPool),
                  std::to_string(p.victimEvictions), paper});
    }
    if (!nonzero.empty())
        t.addRow({"geomean (ex zero rows)",
                  TextTable::pct(stats::geomean(nonzero), 0), "",
                  "", "83%"});
    benchutil::printSection(
        "Table IV: fraction of migrations to the pool", t.str());
}

// --- Figs 9-12: policy and hardware sensitivity ---------------------

std::vector<SweepJob>
cellsFig09()
{
    return acrossWorkloads(
        {SystemSetup::baseline(), SystemSetup::baselineStatic(),
         SystemSetup::starnumaStatic(), SystemSetup::starnuma()});
}

/**
 * Fig 9: oracular static placement on both architectures,
 * normalized to the baseline with dynamic migration.
 */
void
reportFig09(const Cells &cells)
{
    TextTable t({"workload", "baseline static", "starnuma static",
                 "starnuma dynamic"});
    for (const auto &w : benchWorkloads())
        t.addRow(
            {w,
             speedupText(cells.speedup(w, SystemSetup::baselineStatic())),
             speedupText(cells.speedup(w, SystemSetup::starnumaStatic())),
             speedupText(cells.speedup(w, SystemSetup::starnuma()))});
    benchutil::printSection(
        "Fig 9: oracular static placement, normalized to baseline "
        "with dynamic migration",
        t.str());
}

std::vector<SweepJob>
cellsFig10()
{
    return acrossWorkloads({SystemSetup::baseline(),
                            SystemSetup::starnuma(),
                            SystemSetup::starnumaSwitched()});
}

/** Fig 10: speedup with a direct (180 ns) vs switched pool. */
void
reportFig10(const Cells &cells)
{
    TextTable t({"workload", "100 ns penalty (180 ns e2e)",
                 "190 ns penalty (270 ns e2e)"});
    std::vector<double> fast, slow;
    for (const auto &w : benchWorkloads()) {
        double f = cells.speedup(w, SystemSetup::starnuma());
        double s = cells.speedup(w, SystemSetup::starnumaSwitched());
        fast.push_back(f);
        slow.push_back(s);
        t.addRow({w, speedupText(f), speedupText(s)});
    }
    t.addRow({"geomean", speedupText(stats::geomean(fast)),
              speedupText(stats::geomean(slow))});
    benchutil::printSection(
        "Fig 10: speedup vs CXL pool latency (paper: 1.54x -> "
        "1.34x average)",
        t.str());
}

std::vector<SystemSetup>
fig11Configs()
{
    return {SystemSetup::baselineIsoBW(), SystemSetup::baseline2xBW(),
            SystemSetup::starnuma(), SystemSetup::starnumaHalfBW()};
}

std::vector<SweepJob>
cellsFig11()
{
    std::vector<SystemSetup> setups{SystemSetup::baseline()};
    for (const auto &cfg : fig11Configs())
        setups.push_back(cfg);
    return acrossWorkloads(setups);
}

/**
 * Fig 11: Baseline ISO-BW and 2xBW, StarNUMA and StarNUMA Half-BW,
 * each over the baseline.
 */
void
reportFig11(const Cells &cells)
{
    std::vector<SystemSetup> configs = fig11Configs();
    std::vector<std::string> header{"workload"};
    for (const auto &cfg : configs)
        header.push_back(cfg.name);
    TextTable t(header);
    std::vector<std::vector<double>> cols(configs.size());
    for (const auto &w : benchWorkloads()) {
        std::vector<std::string> row{w};
        for (std::size_t i = 0; i < configs.size(); ++i) {
            double s = cells.speedup(w, configs[i]);
            cols[i].push_back(s);
            row.push_back(speedupText(s));
        }
        t.addRow(row);
    }
    std::vector<std::string> gm{"geomean"};
    for (auto &col : cols)
        gm.push_back(speedupText(stats::geomean(col)));
    t.addRow(gm);
    benchutil::printSection(
        "Fig 11: speedup over baseline per link-bandwidth "
        "configuration (paper: ISO-BW 1.14x; StarNUMA beats 2xBW "
        "by 12%)",
        t.str());
}

std::vector<SweepJob>
cellsFig12()
{
    return acrossWorkloads({SystemSetup::baseline(),
                            SystemSetup::starnuma(),
                            SystemSetup::starnumaSmallPool()});
}

/** Fig 12: a chassis-sized (1/5) vs socket-sized (1/17) pool. */
void
reportFig12(const Cells &cells)
{
    TextTable t({"workload", "pool = 1/5 footprint",
                 "pool = 1/17 footprint", "pool pages (1/17)"});
    std::vector<double> big, small;
    for (const auto &w : benchWorkloads()) {
        double b = cells.speedup(w, SystemSetup::starnuma());
        double s = cells.speedup(w, SystemSetup::starnumaSmallPool());
        big.push_back(b);
        small.push_back(s);
        const auto &p =
            cells.run(w, SystemSetup::starnumaSmallPool()).placement;
        t.addRow({w, speedupText(b), speedupText(s),
                  std::to_string(p.pagesInPool) + "/" +
                      std::to_string(p.poolCapacityPages)});
    }
    t.addRow({"geomean", speedupText(stats::geomean(big)),
              speedupText(stats::geomean(small)), ""});
    benchutil::printSection(
        "Fig 12: speedup vs pool capacity (paper: 1.54x -> 1.48x)",
        t.str());
}

// --- Fig 14: simulation-configuration robustness --------------------

/** SC1 (default), SC2 (3x detail per phase), SC3 (8 cores/socket). */
std::vector<std::pair<std::string, SimScale>>
fig14Configs()
{
    std::vector<std::pair<std::string, SimScale>> c;
    c.emplace_back("SC1", benchScale());
    SimScale sc2 = benchScale();
    sc2.detailFraction *= 3;
    c.emplace_back("SC2 (3x detail)", sc2);
    SimScale sc3 = benchScale();
    sc3.coresPerSocket *= 2;
    c.emplace_back("SC3 (2x scale)", sc3);
    return c;
}

std::vector<std::string>
fig14Workloads()
{
    if (benchutil::fastMode())
        return {"tc"};
    return {"bfs", "tc", "fmi"};
}

std::vector<SweepJob>
cellsFig14()
{
    std::vector<SweepJob> jobs;
    for (const auto &[label, scale] : fig14Configs())
        for (auto &job : driver::crossJobs(
                 fig14Workloads(),
                 {SystemSetup::baseline(), SystemSetup::starnuma()},
                 scale))
            jobs.push_back(std::move(job));
    return jobs;
}

/** Fig 14: StarNUMA's speedup under SC1, SC2 and SC3. */
void
reportFig14(const Cells &cells)
{
    std::vector<std::string> header{"workload"};
    for (const auto &[label, scale] : fig14Configs())
        header.push_back(label);
    TextTable t(header);
    for (const auto &w : fig14Workloads()) {
        std::vector<std::string> row{w};
        for (const auto &[label, scale] : fig14Configs())
            row.push_back(speedupText(
                cells.speedup(w, SystemSetup::starnuma(), scale)));
        t.addRow(row);
    }
    benchutil::printSection(
        "Fig 14: StarNUMA speedup under alternative simulation "
        "configurations (paper: qualitative agreement, TC/FMI "
        "within ~5%)",
        t.str());
}

// --- §V-F: replication vs pooling -----------------------------------

std::vector<SweepJob>
cellsSec5f()
{
    return acrossWorkloads({SystemSetup::baseline(),
                            SystemSetup::baselineReplication(),
                            SystemSetup::starnuma()});
}

/**
 * §V-F: the baseline with idealized read-only page replication
 * against StarNUMA's pool, with the replicas' capacity overhead.
 */
void
reportSec5f(const Cells &cells)
{
    TextTable t({"workload", "replication speedup",
                 "starnuma speedup", "replica capacity overhead",
                 "RW pages rejected", "capacity rejected"});
    for (const auto &w : benchWorkloads()) {
        const auto &rep =
            cells.run(w, SystemSetup::baselineReplication())
                .placement.replication;
        t.addRow(
            {w,
             speedupText(
                 cells.speedup(w, SystemSetup::baselineReplication())),
             speedupText(cells.speedup(w, SystemSetup::starnuma())),
             TextTable::num(rep.capacityOverhead, 2) + "x",
             std::to_string(rep.rejectedReadWrite),
             std::to_string(rep.rejectedCapacity)});
    }
    benchutil::printSection(
        "Sec V-F: idealized read-only replication vs StarNUMA's "
        "pool (replication budget: 2x footprint)",
        t.str());
}

// --- §III-B: 32 sockets ---------------------------------------------

std::vector<std::string>
scale32Workloads()
{
    if (benchutil::fastMode())
        return {"bfs"};
    return {"bfs", "cc", "masstree"};
}

/** 8 chassis x 4 sockets, 128 threads. */
SimScale
scale32()
{
    SimScale s = benchScale();
    s.sockets = 32;
    return s;
}

SystemSetup
baseline32()
{
    SystemSetup s;
    s.name = "baseline-32";
    s.sys = topology::SystemConfig::baseline32();
    s.migration.poolEnabled = false;
    return s;
}

SystemSetup
starnuma32()
{
    SystemSetup s;
    s.name = "starnuma-32";
    s.sys = topology::SystemConfig::starnuma32();
    return s;
}

std::vector<SweepJob>
cellsScale32()
{
    std::vector<SweepJob> jobs = driver::crossJobs(
        scale32Workloads(),
        {SystemSetup::baseline(), SystemSetup::starnuma()},
        benchScale());
    for (auto &job : driver::crossJobs(scale32Workloads(),
                                       {baseline32(), starnuma32()},
                                       scale32()))
        jobs.push_back(std::move(job));
    return jobs;
}

/**
 * §III-B: StarNUMA at 16 and at 32 sockets, where the pool sits
 * behind a CXL switch (270 ns end-to-end pool access).
 */
void
reportScale32(const Cells &cells)
{
    TextTable t({"workload", "16 sockets (180 ns pool)",
                 "32 sockets (270 ns switched pool)"});
    for (const auto &w : scale32Workloads()) {
        double s32 =
            cells.run(w, starnuma32(), scale32())
                .metrics.speedupOver(
                    cells.run(w, baseline32(), scale32()).metrics);
        t.addRow({w,
                  speedupText(cells.speedup(w, SystemSetup::starnuma())),
                  speedupText(s32)});
    }
    benchutil::printSection(
        "Sec III-B: StarNUMA speedup at 16 vs 32 sockets", t.str());
}

// --- §III-D: design-space ablations ---------------------------------

std::vector<std::string>
ablationWorkloads()
{
    if (benchutil::fastMode())
        return {"bfs"};
    return {"bfs", "sssp", "masstree"};
}

/** The StarNUMA variants the ablation tables compare. */
struct AblationSetups
{
    SystemSetup star = SystemSetup::starnuma();
    std::vector<SystemSetup> widths;
    std::vector<SystemSetup> regions;
    SystemSetup literal;
    SystemSetup softwareShootdowns;

    AblationSetups()
    {
        for (int bits : {0, 4, 16}) {
            SystemSetup s = star;
            s.name = "starnuma-t" + std::to_string(bits);
            s.migration.counterBits = bits;
            widths.push_back(s);
        }
        for (Addr kb : {4, 16, 64, 256}) {
            SystemSetup s = star;
            s.name = "starnuma-r" + std::to_string(kb);
            s.regionBytes = kb * 1024;
            regions.push_back(s);
        }
        literal = star;
        literal.name = "starnuma-literal";
        literal.migration.randomSharerReshuffle = true;
        softwareShootdowns = star;
        softwareShootdowns.softwareShootdowns = true;
    }
};

std::vector<SweepJob>
cellsAblation()
{
    AblationSetups a;
    std::vector<SystemSetup> setups{SystemSetup::baseline(), a.star,
                                    a.literal, a.softwareShootdowns};
    setups.insert(setups.end(), a.widths.begin(), a.widths.end());
    setups.insert(setups.end(), a.regions.begin(), a.regions.end());
    return driver::crossJobs(ablationWorkloads(), setups,
                             benchScale());
}

/**
 * §III-D: tracker counter width (T0/T4/T16), region size, hardware
 * vs software TLB shootdowns, and Algorithm 1's literal
 * random(sharers) destination vs the stay-at-a-sharer refinement.
 */
void
reportAblation(const Cells &cells)
{
    AblationSetups a;
    auto cell = [&cells](const std::string &w,
                         const SystemSetup &setup) {
        return speedupText(cells.speedup(w, setup));
    };

    // 1) Tracker width sweep.
    {
        TextTable t({"workload", "T0", "T4", "T16"});
        for (const auto &w : ablationWorkloads()) {
            std::vector<std::string> row{w};
            for (const auto &s : a.widths)
                row.push_back(cell(w, s));
            t.addRow(row);
        }
        benchutil::printSection(
            "Ablation: tracker counter width T_i", t.str());
    }

    // 2) Region size sweep (§III-D4).
    {
        TextTable t({"workload", "4 KB", "16 KB", "64 KB",
                     "256 KB"});
        for (const auto &w : ablationWorkloads()) {
            std::vector<std::string> row{w};
            for (const auto &s : a.regions)
                row.push_back(cell(w, s));
            t.addRow(row);
        }
        benchutil::printSection(
            "Ablation: region size (precision vs metadata "
            "overhead, Sec III-D4)",
            t.str());
    }

    // 3) Hardware vs software TLB shootdowns (§III-D3).
    {
        TextTable t({"workload", "hardware (DiDi-style)",
                     "software (IPI every core)"});
        for (const auto &w : ablationWorkloads())
            t.addRow({w, cell(w, a.star),
                      cell(w, a.softwareShootdowns)});
        benchutil::printSection(
            "Ablation: TLB shootdown support (Sec III-D3 — "
            "software shootdowns erode the gains)",
            t.str());
    }

    // 4) Literal Algorithm 1 destination vs stay-at-a-sharer.
    {
        TextTable t({"workload", "stay-at-a-sharer (default)",
                     "literal random(sharers)"});
        for (const auto &w : ablationWorkloads())
            t.addRow({w, cell(w, a.star), cell(w, a.literal)});
        benchutil::printSection(
            "Ablation: narrow-region destination policy", t.str());
    }
}

/** Every figure, in the order the paper presents them. */
const Figure figures[] = {
    {"fig02", noCells, reportFig02},
    {"fig03", noCells, reportFig03},
    {"fig04", noCells, reportFig04},
    {"table3", cellsTable3, reportTable3},
    {"fig08", cellsFig08, reportFig08},
    {"table4", cellsTable4, reportTable4},
    {"fig09", cellsFig09, reportFig09},
    {"fig10", cellsFig10, reportFig10},
    {"fig11", cellsFig11, reportFig11},
    {"fig12", cellsFig12, reportFig12},
    {"fig13", noCells, reportFig13},
    {"fig14", cellsFig14, reportFig14},
    {"sec5f", cellsSec5f, reportSec5f},
    {"scale32", cellsScale32, reportScale32},
    {"ablation", cellsAblation, reportAblation},
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchutil::initBench(&argc, argv);

    std::set<std::string> names(argv + 1, argv + argc);
    const bool all = names.empty();
    std::vector<const Figure *> selected;
    for (const Figure &f : figures)
        if (names.erase(f.name) || all)
            selected.push_back(&f);
    if (!names.empty()) {
        std::string valid;
        for (const Figure &f : figures)
            valid += std::string(" ") + f.name;
        fatal("unknown figure '%s'; valid figures:%s",
              names.begin()->c_str(), valid.c_str());
    }

    // One sweep over every selected figure's cells; runSweep runs a
    // cell that several figures share once.
    std::vector<std::vector<SweepJob>> declared;
    std::vector<SweepJob> jobs;
    for (const Figure *f : selected) {
        declared.push_back(f->cells());
        jobs.insert(jobs.end(), declared.back().begin(),
                    declared.back().end());
    }
    std::vector<driver::ExperimentResult> results =
        driver::runSweep(jobs);

    const driver::ExperimentResult *next = results.data();
    for (std::size_t i = 0; i < selected.size(); ++i) {
        selected[i]->report(
            Cells(selected[i]->name, declared[i], next));
        next += declared[i].size();
    }
    return 0;
}
