//! Structural protocol analysis: place/transition-net invariants and
//! capacity synthesis that scale past the model checkers' state
//! budgets.
//!
//! The exhaustive layers ([`crate::model::flow`], [`crate::model::exact`],
//! [`crate::race`]) prove the paper's protocol properties by
//! enumerating states, so their cost grows with the shape and their
//! claims stop at the state budget — exactly where the scaling ladder
//! is heading. This module proves the same properties
//! *algebraically*, in polynomial time, from the protocol structure
//! alone. It is the first tier of [`crate::model::check_app`]: a shape
//! these certificates close (deadlock-free, both conservation laws, no
//! window collapse) is never handed to the flow explorer, and on the
//! shapes that are, a bounded exploration still reports the
//! certificates' claims as closed rather than partial (AN-MODEL-005).
//! The proofs take four steps:
//!
//! 1. The window protocol (the same constants [`FlowModel::from_protocol`]
//!    consumes) is compiled into a **place/transition net**: window
//!    credits, jobs outstanding, free queue slots and completed-but-
//!    unwritten bundles are places; sending a job, completing a job and
//!    writing a chunk are transitions with weighted arcs.
//! 2. **P-invariants** are computed by Farkas' variant of Gaussian
//!    elimination over the incidence matrix. Each semi-positive
//!    solution of `yᵀ·C = 0` is a conservation law that holds in every
//!    reachable marking of *any* shape size — credit conservation and
//!    the queue bound fall out as machine-checkable certificates
//!    (AN-STRUCT-001).
//! 3. **Siphon/trap analysis** enumerates the minimal siphons and
//!    checks each is invariantly marked (a P-invariant with support
//!    inside the siphon keeps tokens in it forever). A marked-siphon
//!    net cannot wedge by token drainage; the only residual hazard is a
//!    *dead transition* whose weighted input arc exceeds a place bound
//!    — precisely the strict write-back whose chunk threshold the
//!    bounded queue can never accumulate (AN-STRUCT-002/003).
//! 4. The invariant structure is inverted into **capacity synthesis**:
//!    the minimal `pixel_queue_capacity` that keeps every siphon marked
//!    at full window concurrency and the write threshold reachable —
//!    turning AN-PROTO-002's "768 < 2250" detector into a prescription
//!    (AN-STRUCT-004).
//!
//! [`FlowModel::from_protocol`]: crate::model::flow::FlowModel::from_protocol

use raysim::config::AppConfig;

use crate::diag::{Finding, Report};

/// A place in the net: a named token counter with an initial marking.
#[derive(Debug, Clone)]
pub struct Place {
    /// Human-readable name, used in certificates and siphon reports.
    pub name: &'static str,
    /// Initial marking `M₀(p)`.
    pub initial: u64,
}

/// A transition with weighted consume/produce arcs (place index, weight).
#[derive(Debug, Clone)]
pub struct Transition {
    /// Human-readable name, used in counterexample prose.
    pub name: &'static str,
    /// Input arcs: `(place, weight)` consumed when the transition fires.
    pub consume: Vec<(usize, u64)>,
    /// Output arcs: `(place, weight)` produced when the transition fires.
    pub produce: Vec<(usize, u64)>,
}

/// A weighted place/transition net.
#[derive(Debug, Clone, Default)]
pub struct PetriNet {
    /// The places, indexed by the handles [`PetriNet::place`] returns.
    pub places: Vec<Place>,
    /// The transitions.
    pub transitions: Vec<Transition>,
}

/// A P-semiflow `y ≥ 0`, `y ≠ 0`, with `yᵀ·C = 0`: the weighted token
/// sum `Σ y(p)·M(p)` is invariant under every transition, so it equals
/// `yᵀ·M₀` in **every** reachable marking of every shape — a
/// machine-checkable conservation certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PInvariant {
    /// One non-negative weight per place.
    pub weights: Vec<u64>,
    /// The conserved constant `yᵀ·M₀`.
    pub constant: u64,
}

impl PInvariant {
    /// Mechanically re-checks the certificate against `net`: the
    /// weighted effect of every transition must be zero and the
    /// constant must equal the weighted initial marking.
    pub fn certifies(&self, net: &PetriNet) -> bool {
        if self.weights.len() != net.places.len() || self.weights.iter().all(|&w| w == 0) {
            return false;
        }
        let balanced = net.transitions.iter().all(|t| {
            let consumed: u64 = t.consume.iter().map(|&(p, w)| self.weights[p] * w).sum();
            let produced: u64 = t.produce.iter().map(|&(p, w)| self.weights[p] * w).sum();
            consumed == produced
        });
        let m0: u64 = net
            .places
            .iter()
            .zip(&self.weights)
            .map(|(p, &w)| p.initial * w)
            .sum();
        balanced && m0 == self.constant
    }

    /// The support: places with a non-zero weight.
    pub fn support(&self) -> Vec<usize> {
        (0..self.weights.len())
            .filter(|&p| self.weights[p] > 0)
            .collect()
    }

    /// Renders the certificate as `1·a + 2·b = c` prose over `net`'s
    /// place names.
    pub fn render(&self, net: &PetriNet) -> String {
        let terms: Vec<String> = self
            .support()
            .into_iter()
            .map(|p| format!("{}·{}", self.weights[p], net.places[p].name))
            .collect();
        format!("{} = {}", terms.join(" + "), self.constant)
    }
}

/// A minimal siphon and what the invariants say about it.
#[derive(Debug, Clone)]
pub struct SiphonSummary {
    /// Names of the places in the siphon.
    pub places: Vec<&'static str>,
    /// `true` when the siphon is also a trap (tokens can't leave).
    pub is_trap: bool,
    /// `true` when a P-invariant with support inside the siphon and a
    /// positive constant keeps it marked in every reachable state.
    pub invariantly_marked: bool,
}

const MAX_STRUCTURAL_PLACES: usize = 16;

impl PetriNet {
    /// Adds a place; returns its index.
    pub fn place(&mut self, name: &'static str, initial: u64) -> usize {
        self.places.push(Place { name, initial });
        self.places.len() - 1
    }

    /// Adds a transition with weighted consume/produce arcs.
    pub fn transition(
        &mut self,
        name: &'static str,
        consume: Vec<(usize, u64)>,
        produce: Vec<(usize, u64)>,
    ) {
        self.transitions.push(Transition {
            name,
            consume,
            produce,
        });
    }

    /// The incidence matrix `C` (places × transitions):
    /// `C[p][t] = produce(t, p) − consume(t, p)`.
    pub fn incidence(&self) -> Vec<Vec<i64>> {
        let mut c = vec![vec![0i64; self.transitions.len()]; self.places.len()];
        for (t, tr) in self.transitions.iter().enumerate() {
            for &(p, w) in &tr.consume {
                c[p][t] -= w as i64;
            }
            for &(p, w) in &tr.produce {
                c[p][t] += w as i64;
            }
        }
        c
    }

    /// Computes a generating set of minimal-support P-semiflows by
    /// Farkas' algorithm: Gaussian elimination over the rows of
    /// `[C | I]`, restricted to non-negative combinations, one
    /// transition column at a time. The protocol nets here have a
    /// handful of places, so the worst-case blowup never materializes;
    /// a row cap guards pathological inputs.
    pub fn p_semiflows(&self) -> Vec<PInvariant> {
        const ROW_CAP: usize = 4096;
        let np = self.places.len();
        let c = self.incidence();
        // Each row is (remaining incidence part, accumulated y-part).
        let mut rows: Vec<(Vec<i64>, Vec<u64>)> = (0..np)
            .map(|p| {
                let mut y = vec![0u64; np];
                y[p] = 1;
                (c[p].clone(), y)
            })
            .collect();
        for t in 0..self.transitions.len() {
            let mut next: Vec<(Vec<i64>, Vec<u64>)> = Vec::new();
            for row in rows.iter().filter(|r| r.0[t] == 0) {
                next.push(row.clone());
            }
            let pos: Vec<&(Vec<i64>, Vec<u64>)> = rows.iter().filter(|r| r.0[t] > 0).collect();
            let neg: Vec<&(Vec<i64>, Vec<u64>)> = rows.iter().filter(|r| r.0[t] < 0).collect();
            for p in &pos {
                for n in &neg {
                    if next.len() >= ROW_CAP {
                        break;
                    }
                    let (a, b) = (p.0[t] as u64, n.0[t].unsigned_abs());
                    let l = lcm(a, b);
                    let (fp, fneg) = (l / a, l / b);
                    let mut cpart: Vec<i64> =
                        p.0.iter()
                            .zip(&n.0)
                            .map(|(&x, &y)| x * fp as i64 + y * fneg as i64)
                            .collect();
                    let mut ypart: Vec<u64> =
                        p.1.iter()
                            .zip(&n.1)
                            .map(|(&x, &y)| x * fp + y * fneg)
                            .collect();
                    let g = cpart
                        .iter()
                        .map(|v| v.unsigned_abs())
                        .chain(ypart.iter().copied())
                        .fold(0u64, gcd);
                    if g > 1 {
                        for v in &mut cpart {
                            *v /= g as i64;
                        }
                        for v in &mut ypart {
                            *v /= g;
                        }
                    }
                    if !next.iter().any(|r| r.1 == ypart) {
                        next.push((cpart, ypart));
                    }
                }
            }
            rows = next;
        }
        // Every surviving row annihilates C; keep minimal supports.
        let mut flows: Vec<PInvariant> = Vec::new();
        for (_, y) in rows {
            if y.iter().all(|&w| w == 0) {
                continue;
            }
            let constant = self
                .places
                .iter()
                .zip(&y)
                .map(|(p, &w)| p.initial * w)
                .sum();
            let inv = PInvariant {
                weights: y,
                constant,
            };
            if !flows.iter().any(|f| f == &inv) {
                flows.push(inv);
            }
        }
        // Minimal support: drop any semiflow whose support strictly
        // contains another's.
        let supports: Vec<Vec<usize>> = flows.iter().map(|f| f.support()).collect();
        (0..flows.len())
            .filter(|&i| {
                !(0..flows.len()).any(|j| {
                    j != i
                        && supports[j].len() < supports[i].len()
                        && supports[j].iter().all(|p| supports[i].contains(p))
                })
            })
            .map(|i| flows[i].clone())
            .collect()
    }

    /// The structural bound on place `p`: the tightest
    /// `yᵀ·M₀ / y(p)` over invariants covering `p`, or `None` when no
    /// invariant bounds it.
    pub fn place_bound(&self, p: usize, invariants: &[PInvariant]) -> Option<u64> {
        invariants
            .iter()
            .filter(|inv| inv.weights[p] > 0)
            .map(|inv| inv.constant / inv.weights[p])
            .min()
    }

    /// Enumerates the minimal siphons: non-empty place sets `S` with
    /// `•S ⊆ S•` (every transition producing into `S` also consumes
    /// from it), minimal under inclusion. Exponential in places, so
    /// guarded by a 16-place cap; protocol nets stay tiny.
    pub fn minimal_siphons(&self) -> Vec<Vec<usize>> {
        self.minimal_sets(|s, t| {
            let produces = t.produce.iter().any(|&(p, _)| s & (1 << p) != 0);
            let consumes = t.consume.iter().any(|&(p, _)| s & (1 << p) != 0);
            !produces || consumes
        })
    }

    /// `true` when `set` is a trap: `S• ⊆ •S` (every transition
    /// consuming from `S` also produces into it), so a marked trap
    /// stays marked.
    pub fn is_trap(&self, set: &[usize]) -> bool {
        let mask: u64 = set.iter().map(|&p| 1u64 << p).sum();
        self.transitions.iter().all(|t| {
            let consumes = t.consume.iter().any(|&(p, _)| mask & (1 << p) != 0);
            let produces = t.produce.iter().any(|&(p, _)| mask & (1 << p) != 0);
            !consumes || produces
        })
    }

    fn minimal_sets(&self, ok: impl Fn(u64, &Transition) -> bool) -> Vec<Vec<usize>> {
        let np = self.places.len().min(MAX_STRUCTURAL_PLACES);
        let mut sets: Vec<u64> = Vec::new();
        for s in 1u64..(1 << np) {
            if self.transitions.iter().all(|t| ok(s, t)) {
                sets.push(s);
            }
        }
        sets.sort_by_key(|s| s.count_ones());
        let mut minimal: Vec<u64> = Vec::new();
        for s in sets {
            if !minimal.iter().any(|m| m & s == *m) {
                minimal.push(s);
            }
        }
        minimal
            .into_iter()
            .map(|m| (0..np).filter(|&p| m & (1 << p) != 0).collect())
            .collect()
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

/// How the siphon/trap layer classified the shape's deadlock risk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadlockVerdict {
    /// Deadlock freedom proven: every minimal siphon is invariantly
    /// marked and no transition is structurally dead.
    Free,
    /// Structural deadlock: the write transition is dead — its weighted
    /// input arc exceeds the named siphon's token bound, so once the
    /// remainder drains below a chunk the net wedges (strict mode).
    Starved {
        /// Place names of the starved siphon.
        siphon: Vec<&'static str>,
        /// The siphon's structural token bound (bundles).
        bound: u64,
        /// The write threshold the bound can never reach (bundles).
        threshold: u64,
    },
    /// Strict write-back with a live write transition: every siphon is
    /// invariantly marked, but a final partial chunk can still wedge
    /// the tail — not structurally excluded either way. The exact
    /// model distinguishes (it proves V-shape tails wedge or don't).
    Unknown,
}

/// The window protocol compiled to a place/transition net, in the same
/// bundle units as [`crate::model::flow::FlowModel`].
#[derive(Debug, Clone)]
pub struct ProtocolNet {
    /// The compiled net.
    pub net: PetriNet,
    /// Total window credits (`servants × window`).
    pub credits: u64,
    /// Queue capacity in bundles.
    pub capacity_b: u64,
    /// Write chunk in bundles.
    pub chunk_b: u64,
    /// Bundle size in pixels (≥ 1).
    pub bundle: u64,
    /// Eager write-back fallback enabled.
    pub eager: bool,
    p_credits: usize,
    p_out: usize,
    p_free: usize,
    p_done: usize,
}

impl ProtocolNet {
    /// Compiles the protocol constants (**pixel** units, the same
    /// signature as [`crate::model::flow::FlowModel::from_protocol`])
    /// into a net:
    ///
    /// * places — `window-credits` (M₀ = servants×window), `jobs-outstanding`
    ///   (0), `queue-free` (M₀ = ⌊capacity/bundle⌋), `queue-done` (0);
    /// * transitions — `send` (credit + free slot → outstanding),
    ///   `complete` (outstanding → credit back + done bundle),
    ///   `write-chunk` (chunk_b done bundles → chunk_b free slots).
    pub fn from_protocol(
        servants: u32,
        window: u32,
        bundle: u32,
        capacity: u32,
        chunk: u32,
        eager: bool,
    ) -> ProtocolNet {
        let bundle = bundle.max(1);
        let credits = u64::from(servants) * u64::from(window);
        let capacity_b = u64::from((capacity / bundle).max(1));
        let chunk_b = u64::from(chunk.div_ceil(bundle).max(1));
        let mut net = PetriNet::default();
        let p_credits = net.place("window-credits", credits);
        let p_out = net.place("jobs-outstanding", 0);
        let p_free = net.place("queue-free", capacity_b);
        let p_done = net.place("queue-done", 0);
        net.transition("send", vec![(p_credits, 1), (p_free, 1)], vec![(p_out, 1)]);
        net.transition(
            "complete",
            vec![(p_out, 1)],
            vec![(p_credits, 1), (p_done, 1)],
        );
        net.transition(
            "write-chunk",
            vec![(p_done, chunk_b)],
            vec![(p_free, chunk_b)],
        );
        ProtocolNet {
            net,
            credits,
            capacity_b,
            chunk_b,
            bundle: u64::from(bundle),
            eager,
            p_credits,
            p_out,
            p_free,
            p_done,
        }
    }

    /// Compiles an application configuration.
    pub fn from_app(app: &AppConfig) -> ProtocolNet {
        ProtocolNet::from_protocol(
            u32::from(app.servants),
            app.window,
            app.bundle_size,
            app.pixel_queue_capacity,
            app.write_chunk,
            app.eager_writeback,
        )
    }
}

/// Everything the structural layer proves about one protocol shape.
#[derive(Debug, Clone)]
pub struct StructuralVerdict {
    /// The compiled net the certificates refer to.
    pub net: ProtocolNet,
    /// All minimal-support P-invariants, each re-checked against the
    /// incidence matrix before being reported.
    pub invariants: Vec<PInvariant>,
    /// The credit-conservation certificate (`window-credits +
    /// jobs-outstanding = credits`), when found.
    pub conservation: Option<PInvariant>,
    /// The queue-bound certificate (`jobs-outstanding + queue-free +
    /// queue-done = capacity_b`), when found.
    pub queue_bound: Option<PInvariant>,
    /// The minimal siphons with trap/marking classification.
    pub siphons: Vec<SiphonSummary>,
    /// The deadlock classification.
    pub deadlock: DeadlockVerdict,
    /// Structural peak concurrency, in bundle jobs: `min(credits,
    /// capacity_b)`. The bound follows from the queue invariant; its
    /// reachability from the monotone send sequence (sends never
    /// trigger writes while nothing has completed).
    pub peak_concurrency: u64,
    /// The intended concurrency: every credit in flight at once.
    pub intended_concurrency: u64,
    /// `true` when the queue invariant caps concurrency below the
    /// window scheme's intent — V3's collapse, proven for any budget.
    pub window_collapse: bool,
    /// Synthesized minimal `pixel_queue_capacity` (pixels) that keeps
    /// every siphon markable at full window concurrency and the write
    /// threshold reachable: `bundle × max(credits, chunk_b)`.
    pub min_capacity: u64,
}

impl StructuralVerdict {
    /// Do the certificates close every claim the flow explorer checks?
    /// Deadlock freedom (`Free`, which the siphon analysis returns only
    /// under eager write-back, where completion is reachable too), both
    /// conservation certificates, and full window concurrency. A
    /// certified shape is never explored by the flow model.
    pub fn certified(&self) -> bool {
        self.deadlock == DeadlockVerdict::Free
            && self.conservation.is_some()
            && self.queue_bound.is_some()
            && !self.window_collapse
    }
}

/// Runs the full structural analysis on one application shape.
pub fn analyze_structural(app: &AppConfig) -> StructuralVerdict {
    analyze_protocol_net(ProtocolNet::from_app(app))
}

/// Runs the full structural analysis on an already-compiled net (the
/// raw-shape entry point the differential tests use).
pub fn analyze_protocol_net(pn: ProtocolNet) -> StructuralVerdict {
    let invariants: Vec<PInvariant> = pn
        .net
        .p_semiflows()
        .into_iter()
        .filter(|inv| inv.certifies(&pn.net))
        .collect();
    let covers = |inv: &PInvariant, places: &[usize]| {
        let sup = inv.support();
        sup.len() == places.len() && places.iter().all(|p| sup.contains(p))
    };
    let conservation = invariants
        .iter()
        .find(|inv| covers(inv, &[pn.p_credits, pn.p_out]))
        .cloned();
    let queue_bound = invariants
        .iter()
        .find(|inv| covers(inv, &[pn.p_out, pn.p_free, pn.p_done]))
        .cloned();
    let siphons: Vec<SiphonSummary> = pn
        .net
        .minimal_siphons()
        .into_iter()
        .map(|s| SiphonSummary {
            places: s.iter().map(|&p| pn.net.places[p].name).collect(),
            is_trap: pn.net.is_trap(&s),
            invariantly_marked: invariants
                .iter()
                .any(|inv| inv.constant > 0 && inv.support().iter().all(|p| s.contains(p))),
        })
        .collect();
    // The only transition a place bound can starve is the weighted
    // write: `queue-done` is bounded by the queue invariant at
    // `capacity_b`, so a chunk threshold above it is structurally dead.
    let done_bound = pn
        .net
        .place_bound(pn.p_done, &invariants)
        .unwrap_or(u64::MAX);
    let write_live = done_bound >= pn.chunk_b;
    let all_marked = siphons.iter().all(|s| s.invariantly_marked);
    let deadlock = if pn.eager {
        // The eager fallback flushes any partial chunk once nothing is
        // outstanding or assignable, so a dead write threshold cannot
        // wedge the net; marked siphons rule out drainage deadlock.
        if all_marked {
            DeadlockVerdict::Free
        } else {
            DeadlockVerdict::Unknown
        }
    } else if !write_live {
        DeadlockVerdict::Starved {
            siphon: vec![
                pn.net.places[pn.p_out].name,
                pn.net.places[pn.p_free].name,
                pn.net.places[pn.p_done].name,
            ],
            bound: done_bound,
            threshold: pn.chunk_b,
        }
    } else {
        DeadlockVerdict::Unknown
    };
    let peak_concurrency = pn.credits.min(pn.capacity_b);
    let window_collapse = peak_concurrency < pn.credits;
    let min_capacity = pn.bundle * pn.credits.max(pn.chunk_b);
    StructuralVerdict {
        intended_concurrency: pn.credits,
        invariants,
        conservation,
        queue_bound,
        siphons,
        deadlock,
        peak_concurrency,
        window_collapse,
        min_capacity,
        net: pn,
    }
}

/// Renders a verdict into AN-STRUCT-001..004 findings (no subject; the
/// caller owns the report).
pub fn structural_findings(app: &AppConfig, v: &StructuralVerdict) -> Report {
    let mut report = Report::new(String::new());
    let pn = &v.net;

    // AN-STRUCT-001 — conservation certificates.
    match (&v.conservation, &v.queue_bound) {
        (Some(cons), Some(queue)) => {
            let mut f = Finding::info(
                "AN-STRUCT-001",
                format!(
                    "credit conservation proven algebraically: P-invariant {} holds in every \
                     reachable state, for any image size and any state budget",
                    cons.render(&pn.net)
                ),
            )
            .note(format!(
                "certificate: y·C = 0 verified over {} transitions; y·M0 = {} window credits",
                pn.net.transitions.len(),
                cons.constant
            ))
            .note(format!(
                "queue certificate: {} — outstanding and completed bundles can never \
                 overfill the {}-bundle pixel queue",
                queue.render(&pn.net),
                queue.constant
            ));
            for inv in &v.invariants {
                if Some(inv) != v.conservation.as_ref() && Some(inv) != v.queue_bound.as_ref() {
                    f = f.note(format!("additional invariant: {}", inv.render(&pn.net)));
                }
            }
            report.push(f);
        }
        _ => {
            report.push(Finding::warning(
                "AN-STRUCT-001",
                "no conservation invariant covers the credit/queue places — the net shape \
                 changed and the structural certificates need re-deriving",
            ));
        }
    }

    // AN-STRUCT-002 / AN-STRUCT-003 — siphon/trap deadlock analysis.
    match &v.deadlock {
        DeadlockVerdict::Free => {
            let mut f = Finding::info(
                "AN-STRUCT-002",
                format!(
                    "deadlock freedom proven structurally: all {} minimal siphons are \
                     invariantly marked and the write-back path stays live",
                    v.siphons.len()
                ),
            );
            for s in &v.siphons {
                f = f.note(format!(
                    "siphon {{{}}}: {}invariantly marked — a P-invariant pins its tokens",
                    s.places.join(", "),
                    if s.is_trap { "also a trap, " } else { "" },
                ));
            }
            if v.net.chunk_b > v.net.capacity_b {
                f = f.note(format!(
                    "the {}-bundle write threshold exceeds the {}-bundle queue bound, but \
                     eager write-back flushes partial chunks, so the dead threshold cannot \
                     wedge the net",
                    v.net.chunk_b, v.net.capacity_b
                ));
            }
            report.push(f);
        }
        DeadlockVerdict::Starved {
            siphon,
            bound,
            threshold,
        } => {
            report.push(
                Finding::error(
                    "AN-STRUCT-003",
                    format!(
                        "structural deadlock: the write-chunk transition is dead — siphon \
                         {{{}}} is bounded at {} bundle(s), below the {}-bundle write \
                         threshold, so strict write-back wedges once the tail drains",
                        siphon.join(", "),
                        bound,
                        threshold
                    ),
                )
                .at_config("app.write_chunk", u64::from(app.write_chunk))
                .help(format!(
                    "raise pixel_queue_capacity to at least {} pixels, lower write_chunk to \
                     at most {} pixels, or enable eager write-back",
                    threshold * pn.bundle,
                    bound * pn.bundle
                )),
            );
        }
        DeadlockVerdict::Unknown => {
            report.push(
                Finding::warning(
                    "AN-STRUCT-003",
                    "deadlock not structurally excluded: every siphon is invariantly marked, \
                     but strict write-back can still wedge on a final partial chunk",
                )
                .note(
                    "the structural layer cannot see the tail; the exact pixel model \
                     (AN-MODEL-001) classifies whether the wedge is reachable",
                ),
            );
        }
    }

    // AN-STRUCT-004 — capacity synthesis.
    if v.window_collapse {
        report.push(
            Finding::error(
                "AN-STRUCT-004",
                format!(
                    "window collapse proven structurally: the queue invariant caps concurrency \
                     at {} bundle job(s) of the intended {} — true for every state budget",
                    v.peak_concurrency, v.intended_concurrency
                ),
            )
            .at_config(
                "app.pixel_queue_capacity",
                u64::from(app.pixel_queue_capacity),
            )
            .note(format!(
                "synthesis inverts the invariant: capacity must cover servants × window × \
                 bundle = {} pixels before every credit can be in flight",
                v.min_capacity
            ))
            .help(format!(
                "minimum safe pixel_queue_capacity is {} ({} is unsafe)",
                v.min_capacity, app.pixel_queue_capacity
            )),
        );
    } else if u64::from(app.pixel_queue_capacity) < v.min_capacity {
        // The window fits, but the write chunk sets the minimum: the
        // queue can never hold a full chunk.
        report.push(
            Finding::info(
                "AN-STRUCT-004",
                format!(
                    "full window concurrency ({} bundle jobs) stays reachable, but {} pixels \
                     is below the synthesized minimum {}: the {}-bundle write chunk exceeds \
                     the {}-bundle queue bound",
                    v.peak_concurrency,
                    app.pixel_queue_capacity,
                    v.min_capacity,
                    v.net.chunk_b,
                    v.net.capacity_b
                ),
            )
            .note(if v.net.eager {
                "eager write-back flushes partial chunks, so the unreachable threshold \
                 cannot wedge the run (AN-STRUCT-002)"
            } else {
                "under strict write-back the threshold is never reached (AN-STRUCT-003)"
            })
            .help(format!(
                "a pixel_queue_capacity of at least {} pixels lets a full chunk accumulate",
                v.min_capacity
            )),
        );
    } else {
        report.push(
            Finding::info(
                "AN-STRUCT-004",
                format!(
                    "pixel queue capacity is structurally sufficient: {} pixels covers the \
                     synthesized minimum {} — full window concurrency ({} bundle jobs) stays \
                     reachable",
                    app.pixel_queue_capacity, v.min_capacity, v.peak_concurrency
                ),
            )
            .note(
                "reachability is the monotone send sequence: sends consume credits and free \
                 slots only, so nothing forces a write before the peak",
            ),
        );
    }
    report
}

/// The structural analysis of one application version as a standalone
/// report, the `analyze --structural` entry point.
pub fn check_structural(app: &AppConfig) -> Report {
    let verdict = analyze_structural(app);
    let mut report = structural_findings(app, &verdict);
    report.subject = format!("{} structural protocol net", app.version);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use raysim::config::Version;

    #[test]
    fn farkas_finds_both_protocol_invariants() {
        let v = analyze_structural(&AppConfig::version(Version::V4));
        let cons = v.conservation.expect("credit conservation invariant");
        assert_eq!(cons.constant, 45, "15 servants × window 3");
        assert!(cons.certifies(&v.net.net));
        let queue = v.queue_bound.expect("queue-bound invariant");
        assert_eq!(queue.constant, 163, "16384 pixels / 100-pixel bundles");
        assert!(queue.certifies(&v.net.net));
    }

    #[test]
    fn invariant_certificates_reject_tampering() {
        let v = analyze_structural(&AppConfig::version(Version::V1));
        let mut forged = v.conservation.clone().expect("certificate");
        forged.constant += 1;
        assert!(!forged.certifies(&v.net.net));
        let mut zeroed = v.conservation.clone().expect("certificate");
        zeroed.weights.iter_mut().for_each(|w| *w = 0);
        assert!(!zeroed.certifies(&v.net.net));
    }

    #[test]
    fn both_minimal_siphons_are_marked_traps() {
        let v = analyze_structural(&AppConfig::version(Version::V2));
        assert_eq!(v.siphons.len(), 2);
        for s in &v.siphons {
            assert!(s.is_trap, "{:?}", s.places);
            assert!(s.invariantly_marked, "{:?}", s.places);
        }
        assert_eq!(v.deadlock, DeadlockVerdict::Free);
    }

    #[test]
    fn v3_collapse_is_proven_and_the_minimum_is_the_peak_demand() {
        let v = analyze_structural(&AppConfig::version(Version::V3));
        assert!(v.window_collapse);
        assert_eq!(v.peak_concurrency, 15, "768 / 50-pixel bundles");
        assert_eq!(v.intended_concurrency, 45);
        assert_eq!(v.min_capacity, 2_250, "the window scheme's peak demand");
        let report = check_structural(&AppConfig::version(Version::V3));
        assert!(report.contains("AN-STRUCT-004"));
        assert!(report.has_errors());
        assert!(report
            .render()
            .contains("minimum safe pixel_queue_capacity is 2250"));
    }

    #[test]
    fn strict_overshooting_chunk_is_a_structural_deadlock() {
        // capacity 2 bundles, chunk 3 bundles, strict: the write
        // transition is dead, the wedge is certain.
        let v = analyze_protocol_net(ProtocolNet::from_protocol(2, 1, 1, 2, 3, false));
        match &v.deadlock {
            DeadlockVerdict::Starved {
                bound, threshold, ..
            } => {
                assert_eq!((*bound, *threshold), (2, 3));
            }
            other => panic!("expected starvation, got {other:?}"),
        }
        // The same shape with eager write-back is fine.
        let eager = analyze_protocol_net(ProtocolNet::from_protocol(2, 1, 1, 2, 3, true));
        assert_eq!(eager.deadlock, DeadlockVerdict::Free);
    }

    #[test]
    fn chunk_bound_capacity_is_not_reported_sufficient() {
        // Strict V4 whose chunk outgrows the queue: the window still fits
        // (45 ≤ 163 bundles), but the 165-bundle chunk sets the minimum.
        let mut app = AppConfig::version(Version::V4);
        app.eager_writeback = false;
        app.write_chunk = 16_484;
        let v = analyze_structural(&app);
        assert!(!v.window_collapse);
        assert_eq!(v.min_capacity, 16_500);
        assert!(u64::from(app.pixel_queue_capacity) < v.min_capacity);
        let report = check_structural(&app);
        let f = report
            .findings
            .iter()
            .find(|f| f.code == "AN-STRUCT-004")
            .expect("capacity finding");
        assert!(!f.message.contains("sufficient"), "{}", f.message);
        assert!(!f.message.contains("covers"), "{}", f.message);
        assert!(
            f.message.contains("below the synthesized minimum 16500"),
            "{}",
            f.message
        );
        // The starved strict shape keeps its AN-STRUCT-003 error.
        assert!(report.has_errors());
    }

    #[test]
    fn healthy_versions_report_only_info_findings() {
        for version in [Version::V1, Version::V2, Version::V4] {
            let report = check_structural(&AppConfig::version(version));
            assert!(!report.has_errors(), "{version:?}");
            assert_eq!(report.warnings(), 0, "{version:?}");
            assert!(report.contains("AN-STRUCT-001"));
            assert!(report.contains("AN-STRUCT-002"));
            assert!(report.contains("AN-STRUCT-004"));
        }
    }
}
