//! Property-based tests over the core data structures' invariants.

use ending_anomaly::codel::{CodelParams, QueuedPacket};
use ending_anomaly::core::fq::{FqParams, MacFq};
use ending_anomaly::core::packet::FqPacket;
use ending_anomaly::core::scheduler::{AirtimeParams, AirtimeScheduler};
use ending_anomaly::core::table::StationTable;
use ending_anomaly::model::{base_rate, predict, ModelStation};
use ending_anomaly::phy::timing::max_aggregate_frames;
use ending_anomaly::phy::{ChannelWidth, PhyRate};
use ending_anomaly::sim::Nanos;
use ending_anomaly::stats::jain_index;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Pkt {
    flow: u64,
    len: u64,
    t: Nanos,
}

impl QueuedPacket for Pkt {
    fn enqueue_time(&self) -> Nanos {
        self.t
    }
    fn wire_len(&self) -> u64 {
        self.len
    }
}

impl FqPacket for Pkt {
    fn flow_hash(&self) -> u64 {
        self.flow
    }
}

/// One step of the random FQ workload.
#[derive(Debug, Clone)]
enum Op {
    Enqueue { tid: usize, flow: u64, len: u64 },
    Dequeue { tid: usize },
    Advance { micros: u64 },
}

fn op_strategy(tids: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..tids, 0u64..20, 64u64..1500).prop_map(|(tid, flow, len)| Op::Enqueue {
            tid,
            flow,
            len
        }),
        (0..tids).prop_map(|tid| Op::Dequeue { tid }),
        (1u64..10_000).prop_map(|micros| Op::Advance { micros }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The FQ structure conserves packets: enqueued = dequeued + dropped
    /// + still queued, and the global limit is never exceeded.
    #[test]
    fn fq_conserves_packets(ops in proptest::collection::vec(op_strategy(4), 1..400)) {
        let limit = 64;
        let mut fq: MacFq<Pkt> = MacFq::new(FqParams { flows: 16, limit, quantum: 300, ..FqParams::default() });
        let tids: Vec<_> = (0..4).map(|_| fq.register_tid()).collect();
        let params = CodelParams::wifi_default();
        let mut now = Nanos::ZERO;
        let mut delivered = 0u64;
        for op in ops {
            match op {
                Op::Enqueue { tid, flow, len } => {
                    fq.enqueue(Pkt { flow, len, t: now }, tids[tid], now);
                }
                Op::Dequeue { tid } => {
                    if fq.dequeue(tids[tid], now, &params).is_some() {
                        delivered += 1;
                    }
                }
                Op::Advance { micros } => now += Nanos::from_micros(micros),
            }
            prop_assert!(fq.total_packets() <= limit, "limit breached");
            let per_tid: usize = tids.iter().map(|&t| fq.tid_backlog_packets(t)).sum();
            prop_assert_eq!(per_tid, fq.total_packets(), "per-TID sums diverge");
        }
        let s = fq.stats;
        prop_assert_eq!(delivered, s.dequeued);
        prop_assert_eq!(
            s.enqueued,
            s.dequeued + s.drops_overlimit + s.drops_codel + fq.total_packets() as u64
        );
    }

    /// Draining any FQ state delivers every remaining packet exactly once
    /// (no loss, no duplication) when CoDel has no reason to drop.
    #[test]
    fn fq_drains_completely(
        counts in proptest::collection::vec((0usize..30, 0u64..6), 1..40)
    ) {
        let mut fq: MacFq<Pkt> = MacFq::new(FqParams::default());
        let tids: Vec<_> = (0..4).map(|_| fq.register_tid()).collect();
        let now = Nanos::ZERO;
        let mut queued = 0u64;
        for (i, (n, flow)) in counts.iter().enumerate() {
            for _ in 0..*n {
                fq.enqueue(Pkt { flow: *flow, len: 1000, t: now }, tids[i % 4], now);
                queued += 1;
            }
        }
        let params = CodelParams::wifi_default();
        let mut drained = 0u64;
        for &tid in &tids {
            while fq.dequeue(tid, now, &params).is_some() {
                drained += 1;
            }
        }
        prop_assert_eq!(drained, queued);
        prop_assert_eq!(fq.total_packets(), 0);
    }

    /// The airtime scheduler's long-run allocation is fair for any set of
    /// per-station transmission costs (Jain's index near 1).
    #[test]
    fn airtime_drr_is_fair_for_any_costs(
        costs_us in proptest::collection::vec(50u64..4_000, 2..8)
    ) {
        let mut sched = AirtimeScheduler::new(AirtimeParams::default());
        let mut table: StationTable<()> = StationTable::new();
        let stations: Vec<_> = costs_us.iter().map(|_| sched.register_station(&mut table, ())).collect();
        for &s in &stations {
            sched.notify_active(&mut table, s, 2);
        }
        let mut airtime = vec![0u64; costs_us.len()];
        for _ in 0..5_000 {
            let st = sched.next_station(&mut table, 2, |_, _| true).unwrap();
            let cost = costs_us[st.slot()];
            airtime[st.slot()] += cost;
            sched.charge(&mut table, st, 2, Nanos::from_micros(cost));
        }
        let shares: Vec<f64> = airtime.iter().map(|&a| a as f64).collect();
        let jain = jain_index(&shares);
        prop_assert!(jain > 0.97, "unfair: jain {} for costs {:?} -> {:?}", jain, costs_us, airtime);
    }

    /// DRR deficit bound: no station's cumulative airtime exceeds its
    /// fair share by more than one maximum transmission plus one quantum.
    #[test]
    fn airtime_drr_bounded_unfairness(
        costs_us in proptest::collection::vec(50u64..4_000, 2..6),
        rounds in 100usize..2_000
    ) {
        let quantum = 300u64;
        let mut sched = AirtimeScheduler::new(AirtimeParams {
            quantum: Nanos::from_micros(quantum),
            ..AirtimeParams::default()
        });
        let mut table: StationTable<()> = StationTable::new();
        let stations: Vec<_> = costs_us.iter().map(|_| sched.register_station(&mut table, ())).collect();
        for &s in &stations {
            sched.notify_active(&mut table, s, 2);
        }
        let mut airtime = vec![0u64; costs_us.len()];
        for _ in 0..rounds {
            let st = sched.next_station(&mut table, 2, |_, _| true).unwrap();
            airtime[st.slot()] += costs_us[st.slot()];
            sched.charge(&mut table, st, 2, Nanos::from_micros(costs_us[st.slot()]));
        }
        let max_cost = *costs_us.iter().max().unwrap();
        let mean = airtime.iter().sum::<u64>() as f64 / airtime.len() as f64;
        for (i, &a) in airtime.iter().enumerate() {
            let excess = a as f64 - mean;
            prop_assert!(
                excess <= (max_cost + quantum) as f64 * 2.0 + mean * 0.1,
                "station {} airtime {} vs mean {:.0} (costs {:?})",
                i, a, mean, costs_us
            );
        }
    }

    /// Model: base rate is monotone in aggregation and bounded by the
    /// PHY rate, for every HT rate.
    #[test]
    fn model_base_rate_sane(mcs in 0u8..16, n in 1u64..65) {
        let rate = PhyRate::ht(mcs, ChannelWidth::Ht20, true);
        let r1 = base_rate(n as f64, 1500, rate);
        let r2 = base_rate(n as f64 + 1.0, 1500, rate);
        prop_assert!(r2 > r1, "not monotone at n={n}");
        prop_assert!(r2 < rate.bits_per_second() as f64, "exceeds PHY rate");
    }

    /// Model: airtime shares always sum to 1, with and without fairness.
    #[test]
    fn model_shares_sum_to_one(
        aggrs in proptest::collection::vec(1.0f64..42.0, 2..6),
        fairness in proptest::bool::ANY
    ) {
        let stations: Vec<ModelStation> = aggrs
            .iter()
            .enumerate()
            .map(|(i, &a)| ModelStation::new(a, PhyRate::ht((i % 16) as u8, ChannelWidth::Ht20, true)))
            .collect();
        let p = predict(&stations, fairness);
        let sum: f64 = p.iter().map(|x| x.airtime_share).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "shares sum {}", sum);
    }

    /// PHY: the aggregate size limit respects all three caps for any
    /// packet size and rate.
    #[test]
    fn aggregate_limits_hold(len in 64u64..3000, mcs in 0u8..16) {
        use ending_anomaly::phy::consts;
        use ending_anomaly::phy::timing::ampdu_duration;
        let rate = PhyRate::ht(mcs, ChannelWidth::Ht20, true);
        let n = max_aggregate_frames(len, rate);
        prop_assert!(n >= 1);
        prop_assert!(n <= consts::BA_WINDOW);
        prop_assert!(consts::ampdu_len(n as u64, len) <= consts::MAX_AMPDU_BYTES || n == 1);
        if n > 1 {
            prop_assert!(
                ampdu_duration(n as u64, len, rate) <= consts::MAX_AGGREGATE_AIRTIME,
                "airtime cap violated at n={n}"
            );
        }
    }

    /// Jain's index is always in [1/n, 1] for non-negative inputs.
    #[test]
    fn jain_bounds(values in proptest::collection::vec(0.0f64..1e6, 1..20)) {
        let j = jain_index(&values);
        let n = values.len() as f64;
        prop_assert!(j <= 1.0 + 1e-9);
        prop_assert!(j >= 1.0 / n - 1e-9);
    }

    /// TID churn leaks nothing: under any interleaving of register /
    /// unregister / enqueue / dequeue, the global packet count equals the
    /// sum of live per-TID backlogs, every packet is accounted for
    /// (delivered, dropped, detached, or still queued), and unregistering
    /// every TID empties the structure.
    #[test]
    fn fq_churn_leaks_nothing(ops in proptest::collection::vec(churn_op_strategy(), 1..300)) {
        let mut fq: MacFq<Pkt> = MacFq::new(FqParams { flows: 16, limit: 64, quantum: 300, ..FqParams::default() });
        let mut live: Vec<_> = (0..2).map(|_| fq.register_tid()).collect();
        let params = CodelParams::wifi_default();
        let mut now = Nanos::ZERO;
        for op in ops {
            match op {
                ChurnOp::Register => {
                    live.push(fq.register_tid());
                }
                ChurnOp::Unregister { k } => {
                    if !live.is_empty() {
                        let tid = live.swap_remove(k % live.len());
                        fq.unregister_tid(tid, now);
                        prop_assert!(!fq.tid_is_registered(tid));
                    }
                }
                ChurnOp::Enqueue { k, flow, len } => {
                    if !live.is_empty() {
                        let tid = live[k % live.len()];
                        fq.enqueue(Pkt { flow, len, t: now }, tid, now);
                    }
                }
                ChurnOp::Dequeue { k } => {
                    if !live.is_empty() {
                        fq.dequeue(live[k % live.len()], now, &params);
                    }
                }
                ChurnOp::Advance { micros } => now += Nanos::from_micros(micros),
            }
            let per_tid: usize = live.iter().map(|&t| fq.tid_backlog_packets(t)).sum();
            prop_assert_eq!(per_tid, fq.total_packets(), "live TID sums diverge from global count");
        }
        for tid in live.drain(..) {
            fq.unregister_tid(tid, now);
        }
        prop_assert_eq!(fq.total_packets(), 0, "flow queues leaked after full detach");
        let s = fq.stats;
        prop_assert_eq!(
            s.enqueued,
            s.dequeued + s.drops_overlimit + s.drops_codel + s.drops_detached
        );
    }

    /// The FQ structure's internal indexes (the intrusive longest-queue
    /// heap and the DRR new/old lists) stay consistent with the flow
    /// queues under every interleaving of enqueue, DRR dequeue (with
    /// CoDel head-drops as time advances), overlimit drop-from-longest,
    /// and TID detach/reattach. `check_invariants` re-derives all of it
    /// from scratch after every operation and panics on any divergence.
    #[test]
    fn fq_heap_and_lists_stay_consistent(ops in proptest::collection::vec(churn_op_strategy(), 1..300)) {
        // A small limit forces frequent drop-from-longest; few flow
        // buckets force hash collisions; time advances past the CoDel
        // interval trigger head-drops at dequeue.
        let mut fq: MacFq<Pkt> = MacFq::new(FqParams { flows: 8, limit: 24, quantum: 300, ..FqParams::default() });
        let mut live: Vec<_> = (0..2).map(|_| fq.register_tid()).collect();
        let params = CodelParams::wifi_default();
        let mut now = Nanos::ZERO;
        for op in ops {
            match op {
                ChurnOp::Register => {
                    live.push(fq.register_tid());
                }
                ChurnOp::Unregister { k } => {
                    if !live.is_empty() {
                        let tid = live.swap_remove(k % live.len());
                        fq.unregister_tid(tid, now);
                    }
                }
                ChurnOp::Enqueue { k, flow, len } => {
                    if !live.is_empty() {
                        let tid = live[k % live.len()];
                        fq.enqueue(Pkt { flow, len, t: now }, tid, now);
                    }
                }
                ChurnOp::Dequeue { k } => {
                    if !live.is_empty() {
                        fq.dequeue(live[k % live.len()], now, &params);
                    }
                }
                ChurnOp::Advance { micros } => now += Nanos::from_micros(micros),
            }
            fq.check_invariants();
        }
        let had_pressure = fq.stats.drops_overlimit;
        for tid in live.drain(..) {
            fq.unregister_tid(tid, now);
            fq.check_invariants();
        }
        prop_assert_eq!(fq.total_packets(), 0);
        // Not an assertion target per run (some short op sequences never
        // overflow), but keep the counter observable for debugging.
        let _ = had_pressure;
    }

    /// A removed station never reappears in a DRR round, no matter how
    /// registrations, removals and scheduling rounds interleave.
    #[test]
    fn scheduler_never_schedules_removed(ops in proptest::collection::vec(sched_op_strategy(), 1..300)) {
        let mut sched = AirtimeScheduler::new(AirtimeParams::default());
        let mut table: StationTable<()> = StationTable::new();
        let mut live: Vec<_> = (0..2).map(|_| {
            let h = sched.register_station(&mut table, ());
            sched.notify_active(&mut table, h, 2);
            h
        }).collect();
        for op in ops {
            match op {
                SchedOp::Add => {
                    let h = sched.register_station(&mut table, ());
                    sched.notify_active(&mut table, h, 2);
                    live.push(h);
                }
                SchedOp::Remove { k } => {
                    if !live.is_empty() {
                        let h = live.swap_remove(k % live.len());
                        table.free(h);
                        prop_assert!(!table.is_current(h));
                    }
                }
                SchedOp::Round { cost_us } => {
                    if let Some(st) = sched.next_station(&mut table, 2, |_, _| true) {
                        prop_assert!(
                            live.contains(&st),
                            "DRR round offered removed station {:?}", st
                        );
                        sched.charge(&mut table, st, 2, Nanos::from_micros(cost_us));
                        sched.notify_active(&mut table, st, 2);
                    }
                }
            }
        }
    }

    /// Station churn through the full network leaks nothing: after any
    /// join/leave sequence with saturating downlink traffic, removing the
    /// whole roster leaves zero AP backlog and zero station backlogs.
    #[test]
    fn network_churn_leaves_no_backlog(ops in proptest::collection::vec(net_op_strategy(), 1..10)) {
        use ending_anomaly::mac::{NetworkConfig, SchemeKind, StationCfg, WifiNetwork};

        let mut cfg = NetworkConfig::paper_testbed(SchemeKind::AirtimeFair);
        cfg.seed = 7;
        let mut net: WifiNetwork<()> = WifiNetwork::new(cfg);
        let mut app = ChurnFlood { slots: 3, cursor: 0, next_id: 0 };
        net.seed_timer(0, Nanos::ZERO);
        let mut deadline = Nanos::ZERO;
        for op in ops {
            match op {
                NetOp::Join => {
                    let id = net.add_station(StationCfg::clean(PhyRate::fast_station()));
                    app.slots = app.slots.max(id.slot() + 1);
                }
                NetOp::Leave { k } => {
                    let n = net.active_stations();
                    if n > 0 {
                        let id = (0..net.station_slots())
                            .filter(|&s| net.station_active(s))
                            .nth(k % n)
                            .and_then(|s| net.sta_id(s))
                            .unwrap();
                        net.remove_station(id);
                    }
                }
                NetOp::Run { ms } => {
                    deadline += Nanos::from_millis(ms);
                    net.run(deadline, &mut app);
                }
            }
            let recount = (0..net.station_slots()).filter(|&s| net.station_active(s)).count();
            prop_assert_eq!(net.active_stations(), recount, "active-station counter drifted");
        }
        // Tear the whole roster down and let in-flight exchanges land.
        for slot in 0..net.station_slots() {
            if net.station_active(slot) {
                let id = net.sta_id(slot).expect("active slot resolves");
                net.remove_station(id);
            }
        }
        deadline += Nanos::from_millis(50);
        net.run(deadline, &mut app);
        prop_assert_eq!(net.active_stations(), 0);
        prop_assert_eq!(net.ap_backlog(), 0, "AP queues leaked after full churn-out");
        for slot in 0..net.station_slots() {
            prop_assert_eq!(net.station_backlog(slot), 0, "station {} uplink leaked", slot);
        }
    }
}

/// One step of the random TID-churn workload.
#[derive(Debug, Clone)]
enum ChurnOp {
    Register,
    Unregister { k: usize },
    Enqueue { k: usize, flow: u64, len: u64 },
    Dequeue { k: usize },
    Advance { micros: u64 },
}

fn churn_op_strategy() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        Just(ChurnOp::Register),
        (0usize..1_000_000).prop_map(|k| ChurnOp::Unregister { k }),
        ((0usize..1_000_000), 0u64..20, 64u64..1500).prop_map(|(k, flow, len)| ChurnOp::Enqueue {
            k,
            flow,
            len
        }),
        (0usize..1_000_000).prop_map(|k| ChurnOp::Dequeue { k }),
        (1u64..10_000).prop_map(|micros| ChurnOp::Advance { micros }),
    ]
}

/// One step of the random scheduler-churn workload.
#[derive(Debug, Clone)]
enum SchedOp {
    Add,
    Remove { k: usize },
    Round { cost_us: u64 },
}

fn sched_op_strategy() -> impl Strategy<Value = SchedOp> {
    prop_oneof![
        Just(SchedOp::Add),
        (0usize..1_000_000).prop_map(|k| SchedOp::Remove { k }),
        (50u64..4_000).prop_map(|cost_us| SchedOp::Round { cost_us }),
    ]
}

/// One step of the random network-churn workload.
#[derive(Debug, Clone)]
enum NetOp {
    Join,
    Leave { k: usize },
    Run { ms: u64 },
}

fn net_op_strategy() -> impl Strategy<Value = NetOp> {
    prop_oneof![
        Just(NetOp::Join),
        (0usize..1_000_000).prop_map(|k| NetOp::Leave { k }),
        (1u64..15).prop_map(|ms| NetOp::Run { ms }),
    ]
}

/// Minimal saturating downlink app for the network churn property.
struct ChurnFlood {
    slots: usize,
    cursor: usize,
    next_id: u64,
}

impl ending_anomaly::mac::App<()> for ChurnFlood {
    fn on_packet(
        &mut self,
        _at: ending_anomaly::mac::Delivery,
        _pkt: ending_anomaly::mac::Packet<()>,
        _now: Nanos,
        _cmds: &mut ending_anomaly::mac::Commands<()>,
    ) {
    }

    fn on_timer(&mut self, _token: u64, now: Nanos, cmds: &mut ending_anomaly::mac::Commands<()>) {
        use ending_anomaly::mac::{NodeAddr, Packet};
        use ending_anomaly::phy::AccessCategory;
        for _ in 0..4 {
            let dst = self.cursor % self.slots;
            self.cursor += 1;
            self.next_id += 1;
            cmds.send(Packet {
                id: self.next_id,
                src: NodeAddr::Server,
                dst: NodeAddr::Station(dst),
                flow: dst as u64,
                len: 1500,
                ac: AccessCategory::Be,
                created: now,
                enqueued: now,
                payload: (),
            });
        }
        cmds.set_timer(0, now + Nanos::from_micros(500));
    }
}
