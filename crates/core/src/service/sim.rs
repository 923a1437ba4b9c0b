//! The virtual-time service loop: admission, overload control, and
//! scheduling as one deterministic discrete-event simulation.
//!
//! Time is integer microseconds on a [`VirtualClock`]; events are
//! ordered by `(time, dispatch sequence)` so the loop has no ties to
//! break nondeterministically. Service demand is modelled, not
//! measured: a job costs its clip's play-out duration times a
//! per-preset effort factor (UltraFast ≪ real time, VerySlow ≫ real
//! time). That keeps every decision — admit, degrade, shed, complete —
//! a pure function of the [`super::ServiceConfig`], independent of the
//! machine and of the real worker count, which is what makes the
//! saturation study replayable bit-exactly.
//!
//! The overload controller reads queue occupancy at dispatch time and
//! degrades before the service drops anything: ≥ 50% occupancy
//! downshifts one preset notch, ≥ 75% two, ≥ 90% three (along
//! [`crate::resilience::degrade_preset_by`], the same ladder the
//! resilient farm uses on deadline misses). Degradation shrinks service
//! demand, so it genuinely buys capacity. Two refinements keep the
//! shed rate a clean function of offered load:
//!
//! - **Pre-arming.** The front door meters its own ingest, so the
//!   controller starts each run at the cheapest notch level whose
//!   effective utilization stays under 90% of capacity (the full
//!   ladder if none does). Without it, every overloaded run pays a
//!   ramp-up transient — the queue fills and sheds a handful of jobs
//!   before occupancy has taught the controller what the metered rate
//!   already says — and in the band where degradation can absorb the
//!   load those transient sheds are all there is, so the shed *rate*
//!   falls as offered load grows. Pre-armed, that band sheds exactly
//!   zero and shedding begins only past the fully-degraded saturation
//!   point, where it is steady state and strictly increasing.
//! - **Ratcheting.** Within a run, degradation only deepens
//!   (occupancy responses latch onto the pre-armed floor). Without
//!   the latch the controller oscillates between notch levels near
//!   each occupancy threshold, and the oscillation makes effective
//!   capacity — and therefore the shed rate — non-monotone in offered
//!   load: a 4× overload can shed *less* than 3× because it pins the
//!   queue fuller and earns a cheaper preset more of the time.
//!
//! Only a *full* queue sheds, per the class policy; every shed is
//! recorded as a [`ShedEvent`] and a trace counter, never silently.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use super::arrivals::{generate_arrivals, Arrival, HEAVY_FACTOR, US_PER_SEC};
use super::queue::{BoundedQueue, QueuedJob};
use super::{AdmissionError, QosClass, ServiceConfig, VideoProfile};
use crate::exec::clock::VirtualClock;
use crate::resilience::degrade_preset_by;
use vcodec::Preset;

/// Why a job was shed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShedReason {
    /// Bulk class, queue full: the incoming arrival was tail-dropped.
    TailDrop,
    /// Weighted class, queue full: this was the lowest-value work
    /// offered (either the incoming arrival or an evicted entry).
    LowValue,
    /// Deadline class: least slack under a full queue, or already
    /// infeasible at dispatch time.
    Infeasible,
}

impl ShedReason {
    /// Stable lowercase tag used in journal records and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            ShedReason::TailDrop => "tail-drop",
            ShedReason::LowValue => "low-value",
            ShedReason::Infeasible => "infeasible",
        }
    }
}

/// One shed, fully attributed. The service never drops work silently:
/// each event becomes a `service.shed` trace counter immediately and a
/// durable journal `shed` record when a journal is configured.
#[derive(Clone, Debug)]
pub struct ShedEvent {
    /// Shed sequence number within the run (deterministic ordering).
    pub seq: u64,
    /// Virtual time of the decision.
    pub at_us: u64,
    /// Suite video name of the shed job.
    pub name: &'static str,
    /// Popularity rank (0 outside the Weighted class).
    pub rank: u64,
    /// The job's shed value at decision time.
    pub value: f64,
    /// Policy that selected it.
    pub reason: ShedReason,
}

/// The measured outcome of one simulated service run at one offered
/// load: the row a saturation sweep aggregates.
#[derive(Clone, Debug)]
pub struct ServicePoint {
    /// Mean offered arrival rate, jobs per virtual second.
    pub offered_load: f64,
    /// Arrivals offered inside the admission window.
    pub offered: u64,
    /// Arrivals admitted to the queue.
    pub admitted: u64,
    /// Admitted jobs that completed service.
    pub completed: u64,
    /// Jobs shed by the overload controller (see [`ShedEvent`]).
    pub shed: u64,
    /// Arrivals refused because the service was past its duration
    /// ([`AdmissionError::Draining`]); not sheds.
    pub drained: u64,
    /// Jobs dispatched with a degraded (downshifted) preset.
    pub degraded: u64,
    /// Live completions that finished after their deadline.
    pub deadline_misses: u64,
    /// Highest queue occupancy reached.
    pub queue_peak: usize,
    /// Median sojourn (arrival → completion) in virtual microseconds.
    pub sojourn_p50_us: u64,
    /// 95th-percentile sojourn.
    pub sojourn_p95_us: u64,
    /// 99th-percentile sojourn.
    pub sojourn_p99_us: u64,
    /// Every shed, in decision order.
    pub shed_events: Vec<ShedEvent>,
    /// The deduplicated admitted mix: (video index, degradation
    /// notches) pairs actually dispatched — the real-encode workload.
    pub admitted_mix: BTreeSet<(usize, u32)>,
}

impl ServicePoint {
    /// Sheds per offered job (0 when nothing was offered).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }

    /// Admissions per offered job.
    pub fn admit_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.admitted as f64 / self.offered as f64
        }
    }

    /// Degraded dispatches per offered job.
    pub fn degrade_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.degraded as f64 / self.offered as f64
        }
    }
}

/// Relative service demand of a preset, as a multiple of the clip's
/// play-out duration: UltraFast transcodes far faster than real time,
/// VerySlow far slower. Strictly decreasing toward UltraFast, so every
/// degradation notch buys real capacity.
pub(crate) fn effort_factor(preset: Preset) -> f64 {
    match preset {
        Preset::UltraFast => 0.25,
        Preset::VeryFast => 0.4,
        Preset::Fast => 0.6,
        Preset::Medium => 1.0,
        Preset::Slow => 1.6,
        Preset::VerySlow => 2.5,
    }
}

/// The deepest preset downshift the controller will take before it
/// sheds — the bottom of the occupancy ladder below.
pub(crate) const MAX_DEGRADE_NOTCHES: u32 = 3;

/// Mean modelled service demand over the catalog at `notches`
/// degradation, in seconds. The saturation estimates and the pre-arm
/// controller both read capacity off this curve.
pub(crate) fn mean_service_secs(profiles: &[VideoProfile], notches: u32) -> f64 {
    profiles
        .iter()
        .map(|p| p.play_secs * effort_factor(degrade_preset_by(p.preset, notches)))
        .sum::<f64>()
        / profiles.len() as f64
}

/// The pre-armed degradation floor for a metered offered load: the
/// cheapest notch level whose effective utilization stays under 90%
/// of capacity, or the full ladder if none does (see the module doc
/// for why arming up front, not on occupancy, keeps the shed rate
/// monotone in load).
fn prearm_notches(config: &ServiceConfig, profiles: &[VideoProfile]) -> u32 {
    (0..=MAX_DEGRADE_NOTCHES)
        .find(|&n| {
            config.offered_load * mean_service_secs(profiles, n) <= 0.9 * config.capacity as f64
        })
        .unwrap_or(MAX_DEGRADE_NOTCHES)
}

/// The overload controller's degradation response to queue occupancy
/// at dispatch time.
fn degrade_notches(occupancy: f64) -> u32 {
    if occupancy >= 0.9 {
        3
    } else if occupancy >= 0.75 {
        2
    } else if occupancy >= 0.5 {
        1
    } else {
        0
    }
}

/// Modelled service demand of `arrival` at `notches` degradation, in
/// virtual microseconds (≥ 1).
fn service_us(arrival: &Arrival, profile: &VideoProfile, notches: u32) -> u64 {
    let effort = effort_factor(degrade_preset_by(profile.preset, notches));
    let heavy = if arrival.heavy { HEAVY_FACTOR } else { 1.0 };
    ((profile.play_secs * effort * heavy * US_PER_SEC).round() as u64).max(1)
}

/// A job in service on a virtual server: ordered by completion time,
/// then dispatch sequence, so the event loop is total-ordered.
#[derive(Debug)]
struct InService {
    at_us: u64,
    seq: u64,
    arrival: Arrival,
}

impl PartialEq for InService {
    fn eq(&self, other: &InService) -> bool {
        (self.at_us, self.seq) == (other.at_us, other.seq)
    }
}
impl Eq for InService {}
impl PartialOrd for InService {
    fn partial_cmp(&self, other: &InService) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InService {
    fn cmp(&self, other: &InService) -> std::cmp::Ordering {
        (self.at_us, self.seq).cmp(&(other.at_us, other.seq))
    }
}

/// Internal mutable state of one simulation run.
struct Sim<'a> {
    profiles: &'a [VideoProfile],
    class: QosClass,
    clock: VirtualClock,
    queue: BoundedQueue,
    busy: BinaryHeap<Reverse<InService>>,
    idle: usize,
    /// The degradation ratchet: the deepest notch level the pre-arm or
    /// occupancy has demanded so far. Dispatch never runs shallower.
    notches_floor: u32,
    /// Cheapest predicted dollars per profile (parallel to `profiles`),
    /// from the cost plane's predictor over the default instance
    /// catalog. The Weighted class sheds by value *per dollar*: a cheap
    /// mid-rank clip can outrank an expensive popular one.
    job_dollars: Vec<f64>,
    dispatch_seq: u64,
    sojourns: Vec<u64>,
    point: ServicePoint,
}

/// Simulates one service run in virtual time. Pure in `(config,
/// profiles)`: no wall clocks, no threads, no I/O — the whole outcome
/// replays bit-exactly anywhere.
pub fn simulate_service(config: &ServiceConfig, profiles: &[VideoProfile]) -> ServicePoint {
    assert!(config.capacity > 0, "service capacity must be positive");
    let duration_us = (config.duration_secs * US_PER_SEC).round() as u64;
    let catalog = vhw::InstanceCatalog::default_fleet();
    let job_dollars = profiles
        .iter()
        .map(|p| crate::fleet::cheapest_job_dollars(&p.features(), &catalog))
        .collect();
    let mut sim = Sim {
        profiles,
        class: QosClass::of(config.scenario),
        clock: VirtualClock::default(),
        queue: BoundedQueue::new(config.queue_depth),
        busy: BinaryHeap::new(),
        idle: config.capacity,
        notches_floor: prearm_notches(config, profiles),
        job_dollars,
        dispatch_seq: 0,
        sojourns: Vec::new(),
        point: ServicePoint {
            offered_load: config.offered_load,
            offered: 0,
            admitted: 0,
            completed: 0,
            shed: 0,
            drained: 0,
            degraded: 0,
            deadline_misses: 0,
            queue_peak: 0,
            sojourn_p50_us: 0,
            sojourn_p95_us: 0,
            sojourn_p99_us: 0,
            shed_events: Vec::new(),
            admitted_mix: BTreeSet::new(),
        },
    };

    for arrival in generate_arrivals(config, profiles) {
        // Free every server whose job completes before (or exactly as)
        // this arrival lands: completions sort first on ties so the
        // freed capacity is visible to the admission decision.
        while sim.busy.peek().is_some_and(|Reverse(c)| c.at_us <= arrival.at_us) {
            sim.complete_next();
            sim.dispatch_ready();
        }
        sim.clock.advance_to(arrival.at_us);
        if arrival.at_us > duration_us {
            // Past the window: the service drains. Refused, not shed.
            sim.point.drained += 1;
            sim.trace_count("service.drained");
            sim.note_refusal(AdmissionError::Draining);
            continue;
        }
        sim.point.offered += 1;
        sim.trace_count("service.offered");
        sim.admit(arrival);
        sim.dispatch_ready();
    }
    // Arrival stream exhausted: drain the queue and the servers.
    while !sim.busy.is_empty() {
        sim.complete_next();
        sim.dispatch_ready();
    }

    sim.point.queue_peak = sim.queue.peak();
    sim.sojourns.sort_unstable();
    sim.point.sojourn_p50_us = percentile(&sim.sojourns, 0.50);
    sim.point.sojourn_p95_us = percentile(&sim.sojourns, 0.95);
    sim.point.sojourn_p99_us = percentile(&sim.sojourns, 0.99);
    sim.point
}

impl Sim<'_> {
    /// Admission decision for one in-window arrival, per the class shed
    /// policy. Errors are consumed into metrics here; unit tests cover
    /// the typed mapping through [`Sim::refuse`].
    fn admit(&mut self, arrival: Arrival) {
        let est = service_us(&arrival, &self.profiles[arrival.video], 0);
        let job = QueuedJob { est_service_us: est, arrival };
        if !self.queue.is_full() {
            self.accept(job);
            return;
        }
        match self.class {
            // All uploads are equal: nothing queued is worth less than
            // the incoming job, so the arrival itself is dropped.
            QosClass::Bulk => {
                let depth = self.queue.depth();
                self.shed(&job, ShedReason::TailDrop);
                self.refuse(job, AdmissionError::QueueFull { depth });
            }
            // Watch-time weighted: shed the work worth the least *per
            // predicted dollar* in sight — watch-time value divided by
            // the cost plane's cheapest predicted encode cost — which
            // may be the incoming arrival itself. (`ShedEvent::value`
            // stays the raw watch-time value; only the ordering is
            // cost-aware.)
            QosClass::Weighted => {
                let dollars = &self.job_dollars;
                let density = |j: &QueuedJob| j.arrival.value / dollars[j.arrival.video];
                let queued_min = self.queue.iter().map(density).fold(f64::INFINITY, f64::min);
                if density(&job) <= queued_min {
                    self.shed(&job, ShedReason::LowValue);
                    self.refuse(job, AdmissionError::Shedding);
                } else {
                    let victim =
                        self.queue.evict_min_by_key(density).expect("full queue has a minimum");
                    self.shed(&victim, ShedReason::LowValue);
                    self.accept(job);
                }
            }
            // Deadline driven: shed whatever is least likely to make
            // its deadline — the entry (queued or incoming) with the
            // smallest slack.
            QosClass::Deadline => {
                let now = self.clock.now_us();
                let slack = |j: &QueuedJob| {
                    j.arrival
                        .deadline_us
                        .map_or(i64::MAX, |d| d as i64 - now as i64 - j.est_service_us as i64)
                };
                let queued_min = self.queue.iter().map(&slack).min().unwrap_or(i64::MAX);
                if slack(&job) <= queued_min {
                    self.shed(&job, ShedReason::Infeasible);
                    self.refuse(job, AdmissionError::Shedding);
                } else {
                    let victim =
                        self.queue.evict_min_by_key(slack).expect("full queue has a minimum");
                    self.shed(&victim, ShedReason::Infeasible);
                    self.accept(job);
                }
            }
        }
    }

    fn accept(&mut self, job: QueuedJob) {
        self.point.admitted += 1;
        self.trace_count("service.admitted");
        self.queue.try_push(job).expect("admission checked the bound");
    }

    /// Starts queued jobs on idle servers. The degradation notches are
    /// read off queue occupancy *before* each pop — the fuller the
    /// queue, the cheaper the preset — then latched through the
    /// ratchet so a run never shifts back up once overload has fired.
    fn dispatch_ready(&mut self) {
        while self.idle > 0 && !self.queue.is_empty() {
            let notches = degrade_notches(self.queue.occupancy()).max(self.notches_floor);
            self.notches_floor = notches;
            let job = self.queue.pop_front().expect("checked non-empty");
            let now = self.clock.now_us();
            let demand = service_us(&job.arrival, &self.profiles[job.arrival.video], notches);
            // A Live job that can no longer make its deadline would
            // waste a server: shed it instead of serving it late.
            if self.class == QosClass::Deadline {
                if let Some(deadline) = job.arrival.deadline_us {
                    if now + demand > deadline {
                        self.shed(&job, ShedReason::Infeasible);
                        continue;
                    }
                }
            }
            if notches > 0 {
                self.point.degraded += 1;
                self.trace_count("service.degraded");
            }
            self.point.admitted_mix.insert((job.arrival.video, notches));
            self.idle -= 1;
            self.busy.push(Reverse(InService {
                at_us: now + demand,
                seq: self.dispatch_seq,
                arrival: job.arrival,
            }));
            self.dispatch_seq += 1;
            if vtrace::enabled() {
                vtrace::gauge("service.queue_depth", self.queue.len() as f64);
            }
        }
    }

    fn complete_next(&mut self) {
        let Reverse(done) = self.busy.pop().expect("caller checked non-empty");
        self.clock.advance_to(done.at_us);
        self.idle += 1;
        self.point.completed += 1;
        self.trace_count("service.completed");
        let sojourn = done.at_us - done.arrival.at_us;
        self.sojourns.push(sojourn);
        if done.arrival.deadline_us.is_some_and(|d| done.at_us > d) {
            self.point.deadline_misses += 1;
            self.trace_count("service.deadline_misses");
        }
        if vtrace::enabled() {
            vtrace::histogram("service.sojourn_us", sojourn);
        }
    }

    fn shed(&mut self, job: &QueuedJob, reason: ShedReason) {
        let event = ShedEvent {
            seq: self.point.shed_events.len() as u64,
            at_us: self.clock.now_us(),
            name: self.profiles[job.arrival.video].name,
            rank: job.arrival.rank,
            value: job.arrival.value,
            reason,
        };
        self.point.shed += 1;
        self.trace_count("service.shed");
        if vtrace::enabled() {
            vtrace::debug("service", || {
                format!(
                    "shed #{} {} ({}) at {} us: {}",
                    event.seq,
                    event.name,
                    event.reason.tag(),
                    event.at_us,
                    AdmissionError::Shedding
                )
            });
        }
        self.point.shed_events.push(event);
    }

    /// The typed refusal an `offer()` caller would observe; the batch
    /// simulation only needs it for telemetry, but keeping the error
    /// constructed here pins the [`AdmissionError`] mapping under test.
    fn refuse(&mut self, _job: QueuedJob, error: AdmissionError) {
        self.note_refusal(error);
    }

    fn note_refusal(&mut self, error: AdmissionError) {
        if vtrace::enabled() {
            vtrace::debug("service", || format!("refused: {error}"));
        }
    }

    fn trace_count(&self, name: &'static str) {
        if vtrace::enabled() {
            vtrace::counter(name, 1);
        }
    }
}

/// Nearest-rank percentile over sorted samples (0 when empty).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let index = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[index]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::service::video_profiles;
    use crate::suite::{Suite, SuiteOptions};

    fn profiles(scenario: Scenario) -> Vec<VideoProfile> {
        video_profiles(&Suite::vbench(&SuiteOptions::tiny()), scenario)
    }

    fn config(scenario: Scenario, load: f64) -> ServiceConfig {
        let mut c = ServiceConfig::new(scenario, load, 20.0);
        c.capacity = 2;
        c.queue_depth = 4;
        c
    }

    #[test]
    fn accounting_is_conservative() {
        for scenario in [Scenario::Upload, Scenario::Popular, Scenario::Live] {
            let p = profiles(scenario);
            let point = simulate_service(&config(scenario, 40.0), &p);
            // Every offered job is admitted or shed at admission; every
            // admitted job completes or is shed at dispatch.
            assert_eq!(
                point.admitted + (point.shed_events.len() as u64 - dispatch_sheds(&point)),
                point.offered,
                "{scenario}: admission accounting"
            );
            assert_eq!(
                point.completed + dispatch_sheds(&point),
                point.admitted,
                "{scenario}: dispatch accounting"
            );
            assert_eq!(point.shed, point.shed_events.len() as u64);
            assert!(point.queue_peak <= 4);
        }
    }

    /// Sheds recorded at dispatch time (Live infeasibility) rather than
    /// at admission: completed + these = admitted.
    fn dispatch_sheds(point: &ServicePoint) -> u64 {
        point.admitted.saturating_sub(point.completed)
    }

    #[test]
    fn low_load_never_sheds_and_never_degrades() {
        for scenario in [Scenario::Upload, Scenario::Popular, Scenario::Live] {
            let p = profiles(scenario);
            let sat = crate::service::estimated_saturation_load(&p, 2);
            let point = simulate_service(&config(scenario, sat * 0.2), &p);
            assert!(point.offered > 0);
            assert_eq!(point.shed, 0, "{scenario} shed below saturation");
            assert_eq!(point.completed, point.admitted);
        }
    }

    #[test]
    fn overload_degrades_before_it_drops() {
        let p = profiles(Scenario::Popular);
        let sat = crate::service::estimated_saturation_load(&p, 2);
        // Mild overload: the pre-armed controller degrades, absorbing
        // the excess without shedding anything.
        let warm = simulate_service(&config(Scenario::Popular, sat * 1.2), &p);
        assert!(warm.degraded > 0, "pre-armed degradation fires");
        assert_eq!(warm.shed, 0, "mild overload is absorbed by degradation");
        // Past even the fully-degraded saturation point: shedding
        // starts, and only lowest-value work goes. Every Popular shed
        // carries its rank and weight.
        let sat_deg = crate::service::degraded_saturation_load(&p, 2);
        let hot = simulate_service(&config(Scenario::Popular, sat_deg * 2.0), &p);
        assert!(hot.shed > 0);
        assert!(hot.shed_events.iter().all(|e| e.rank > 0 && e.value > 0.0));
        assert!(hot.shed_events.iter().all(|e| e.reason == ShedReason::LowValue));
        // The shed work is low-value: its mean rank is deep in the tail
        // relative to the admitted head-heavy draw.
        let mean_shed_rank: f64 = hot.shed_events.iter().map(|e| e.rank as f64).sum::<f64>()
            / hot.shed_events.len() as f64;
        assert!(mean_shed_rank > 50.0, "sheds come from the tail, mean rank {mean_shed_rank}");
    }

    #[test]
    fn live_sheds_are_infeasible_first_and_upload_tail_drops() {
        let live = profiles(Scenario::Live);
        let sat = crate::service::degraded_saturation_load(&live, 2);
        let point = simulate_service(&config(Scenario::Live, sat * 2.0), &live);
        assert!(point.shed > 0);
        assert!(point.shed_events.iter().all(|e| e.reason == ShedReason::Infeasible));

        let upload = profiles(Scenario::Upload);
        let sat = crate::service::degraded_saturation_load(&upload, 2);
        let point = simulate_service(&config(Scenario::Upload, sat * 2.0), &upload);
        assert!(point.shed > 0);
        assert!(point.shed_events.iter().all(|e| e.reason == ShedReason::TailDrop));
    }

    #[test]
    fn draining_refuses_late_arrivals_without_shedding_them() {
        let p = profiles(Scenario::Upload);
        let point = simulate_service(&config(Scenario::Upload, 5.0), &p);
        assert!(point.drained > 0, "the overrun window exercises draining");
        // Drained arrivals are not sheds and not offered.
        assert!(point.shed_events.len() as u64 <= point.offered);
    }

    #[test]
    fn replay_is_bit_exact() {
        let p = profiles(Scenario::Popular);
        let a = simulate_service(&config(Scenario::Popular, 30.0), &p);
        let b = simulate_service(&config(Scenario::Popular, 30.0), &p);
        assert_eq!(a.admitted_mix, b.admitted_mix);
        assert_eq!(a.shed_events.len(), b.shed_events.len());
        for (x, y) in a.shed_events.iter().zip(&b.shed_events) {
            assert_eq!(
                (x.seq, x.at_us, x.name, x.rank, x.reason),
                (y.seq, y.at_us, y.name, y.rank, y.reason)
            );
        }
        assert_eq!(
            (a.sojourn_p50_us, a.sojourn_p95_us, a.sojourn_p99_us),
            (b.sojourn_p50_us, b.sojourn_p95_us, b.sojourn_p99_us)
        );
    }

    #[test]
    #[should_panic(expected = "virtual clock moved backwards")]
    fn the_clock_rejects_time_travel() {
        let mut clock = VirtualClock::default();
        clock.advance_to(10);
        clock.advance_to(9);
    }

    #[test]
    fn effort_ladder_is_strictly_decreasing_toward_ultrafast() {
        let ladder = [
            Preset::VerySlow,
            Preset::Slow,
            Preset::Medium,
            Preset::Fast,
            Preset::VeryFast,
            Preset::UltraFast,
        ];
        for pair in ladder.windows(2) {
            assert!(effort_factor(pair[0]) > effort_factor(pair[1]));
        }
    }
}
