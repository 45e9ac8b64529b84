//! The cloud platform: deployment, DNS wiring, ingress routing, lifecycle.
//!
//! A [`CloudPlatform`] owns the provider states (regions, ingress nodes,
//! DNS zones) and the function registry. Deploying a function:
//!
//! 1. mints its domain from the provider's Table 1 format,
//! 2. publishes DNS records according to the provider's ingress
//!    architecture (direct A/AAAA, anycast, or CNAME load balancing —
//!    §4.2),
//! 3. ensures HTTP (:80) and simulated-TLS (:443) listeners exist on the
//!    ingress nodes, routing by `Host` header,
//! 4. registers the function's behaviour, billing meter and cold-start
//!    state.
//!
//! Deletion honours §4.4: records are withdrawn, and only Tencent's
//! wildcard-less zone turns deleted names into NXDOMAIN; everywhere else
//! wildcard DNS keeps resolving to an ingress node that answers 404 (403
//! on AWS).
//!
//! Time is virtual: the platform's millisecond clock only advances when
//! told to, so cold/warm-start behaviour is deterministic and testable.

use crate::behavior::{Behavior, BehaviorContext, Outcome};
use crate::billing::BillingLedger;
use crate::formats::{format_for, UrlParts};
use crate::provider::{spec, IngressArch, ProviderSpec};
use fw_dns::resolver::Resolver;
use fw_dns::zone::Zone;
use fw_http::parse::Limits;
use fw_http::server::serve_connection;
use fw_http::types::{Request, Response};
use fw_net::{Clock, ClockSource as _, Connection, SimNet, TlsServer};
use fw_types::{Fqdn, ProviderId, Rdata};
use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Platform-wide configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    pub seed: u64,
    /// How long an `InternalOnly` function holds a connection before
    /// answering 504 (probes must time out first). Tests use small values.
    pub hang_ms: u64,
    /// Idle window within which an execution environment stays warm.
    pub warm_keepalive_ms: u64,
    /// Simulated cold-start initialization latency (metered, not slept).
    pub cold_start_ms: u64,
    /// Default memory size of a function.
    pub default_memory_mb: u32,
    /// Default execution duration per invocation (metered).
    pub default_exec_ms: u64,
    /// Egress IPs available per provider-region.
    pub egress_pool_size: u8,
    /// DNS record TTL published for function names.
    pub record_ttl: u32,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            seed: 0xfaa5,
            hang_ms: 120_000,
            warm_keepalive_ms: 600_000,
            cold_start_ms: 450,
            default_memory_mb: 128,
            default_exec_ms: 20,
            egress_pool_size: 8,
            record_ttl: 60,
        }
    }
}

/// Deployment request.
#[derive(Debug, Clone)]
pub struct DeploySpec {
    pub provider: ProviderId,
    /// Region code; `None` picks deterministically from the catalogue.
    pub region: Option<String>,
    pub behavior: Behavior,
    /// Enforce IAM auth on the URL (the paper finds only 0.13% of
    /// functions answer 401, so deployments default to open).
    pub auth_protected: bool,
    /// Function name; `None` generates one.
    pub fname: Option<String>,
    /// Account id (Tencent's `[UserID]`); `None` generates one.
    pub account_id: Option<u64>,
    pub memory_mb: Option<u32>,
    pub exec_ms: Option<u64>,
    /// Entropy for the deployment's random draws (domain minting, region
    /// pick, behaviour seed). `None` draws from the platform RNG —
    /// convenient, but then the minted domain depends on global
    /// deployment order. Callers that deploy from parallel workers pass
    /// an explicit value derived from their own seed so the deployment
    /// is a pure function of the spec.
    pub entropy: Option<u64>,
}

impl DeploySpec {
    pub fn new(provider: ProviderId, behavior: Behavior) -> DeploySpec {
        DeploySpec {
            provider,
            region: None,
            behavior,
            auth_protected: false,
            fname: None,
            account_id: None,
            memory_mb: None,
            exec_ms: None,
            entropy: None,
        }
    }

    pub fn in_region(mut self, region: &str) -> DeploySpec {
        self.region = Some(region.to_string());
        self
    }

    pub fn with_auth(mut self) -> DeploySpec {
        self.auth_protected = true;
        self
    }

    pub fn with_entropy(mut self, entropy: u64) -> DeploySpec {
        self.entropy = Some(entropy);
        self
    }
}

/// Deployment failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    UnknownRegion {
        provider: ProviderId,
        region: String,
    },
    /// Azure cannot be simulated at DNS level (excluded from the study).
    UnsupportedProvider(ProviderId),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::UnknownRegion { provider, region } => {
                write!(f, "{provider} has no region {region:?}")
            }
            DeployError::UnsupportedProvider(p) => write!(f, "{p} is not deployable"),
        }
    }
}

impl std::error::Error for DeployError {}

/// A deployed function handle.
#[derive(Debug, Clone)]
pub struct Deployed {
    pub fqdn: Fqdn,
    pub provider: ProviderId,
    pub region: String,
    /// Invocation path (`/` for function-URL providers, the function path
    /// for path-identified ones).
    pub path: String,
}

struct FunctionEntry {
    fqdn: Fqdn,
    region_idx: usize,
    behavior: Behavior,
    auth_protected: bool,
    memory_mb: u32,
    exec_ms: u64,
    seed: u64,
    deleted: AtomicBool,
    invocations: AtomicU64,
    /// Execution environments: last-used virtual ms.
    envs: Mutex<Vec<u64>>,
}

struct RegionIngress {
    v4: Vec<Ipv4Addr>,
    v6: Vec<Ipv6Addr>,
    /// CNAME targets (for CnameLb providers).
    cnames: Vec<Fqdn>,
}

struct ProviderState {
    spec: ProviderSpec,
    regions: HashMap<String, RegionIngress>,
}

/// Lifecycle counters.
#[derive(Debug, Default)]
pub struct PlatformStats {
    pub invocations: AtomicU64,
    pub cold_starts: AtomicU64,
    pub warm_starts: AtomicU64,
    pub unknown_host: AtomicU64,
    pub deleted_hits: AtomicU64,
}

struct PlatformInner {
    config: PlatformConfig,
    functions: RwLock<HashMap<Fqdn, Arc<FunctionEntry>>>,
    providers: RwLock<HashMap<ProviderId, Arc<ProviderState>>>,
    billing: Mutex<BillingLedger>,
    clock_ms: AtomicU64,
    rng: Mutex<SmallRng>,
    stats: PlatformStats,
    /// The world's time source (shared with [`SimNet`]): a hanging
    /// function sleeps on it, so on virtual time a hang is a scheduled
    /// event rather than a real `thread::sleep`.
    net_clock: Clock,
}

/// The simulated serverless cloud.
#[derive(Clone)]
pub struct CloudPlatform {
    net: SimNet,
    resolver: Arc<RwLock<Resolver>>,
    inner: Arc<PlatformInner>,
}

impl std::fmt::Debug for CloudPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudPlatform")
            .field("functions", &self.inner.functions.read().len())
            .finish()
    }
}

impl CloudPlatform {
    pub fn new(net: SimNet, resolver: Arc<RwLock<Resolver>>, config: PlatformConfig) -> Self {
        let net_clock = net.clock().clone();
        CloudPlatform {
            net,
            resolver,
            inner: Arc::new(PlatformInner {
                rng: Mutex::new(SmallRng::seed_from_u64(config.seed)),
                config,
                functions: RwLock::new(HashMap::new()),
                providers: RwLock::new(HashMap::new()),
                billing: Mutex::new(BillingLedger::new()),
                clock_ms: AtomicU64::new(0),
                stats: PlatformStats::default(),
                net_clock,
            }),
        }
    }

    /// The shared resolver (probes resolve through it).
    pub fn resolver(&self) -> Arc<RwLock<Resolver>> {
        self.resolver.clone()
    }

    /// Advance the virtual clock.
    pub fn advance_ms(&self, ms: u64) {
        self.inner.clock_ms.fetch_add(ms, Ordering::Relaxed);
    }

    /// Lifecycle counters.
    pub fn stats(&self) -> &PlatformStats {
        &self.inner.stats
    }

    /// Number of invocations a function has served.
    pub fn invocation_count(&self, fqdn: &Fqdn) -> u64 {
        self.inner
            .functions
            .read()
            .get(fqdn)
            .map(|f| f.invocations.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Run a closure over the billing ledger.
    pub fn with_billing<T>(&self, f: impl FnOnce(&BillingLedger) -> T) -> T {
        f(&self.inner.billing.lock())
    }

    /// Deploy a function.
    pub fn deploy(&self, spec_req: DeploySpec) -> Result<Deployed, DeployError> {
        if spec_req.provider == ProviderId::Azure {
            return Err(DeployError::UnsupportedProvider(ProviderId::Azure));
        }
        let pstate = self.provider_state(spec_req.provider);
        // All of this deployment's random draws come from one local RNG:
        // seeded by the caller's entropy when given, else by a single
        // draw from the platform RNG (one draw per deploy keeps the
        // global sequence cheap to reason about).
        let mut rng = SmallRng::seed_from_u64(
            spec_req
                .entropy
                .unwrap_or_else(|| self.inner.rng.lock().gen()),
        );
        let region = match &spec_req.region {
            Some(r) => {
                if !pstate.spec.regions.contains(&r.as_str()) {
                    return Err(DeployError::UnknownRegion {
                        provider: spec_req.provider,
                        region: r.clone(),
                    });
                }
                r.clone()
            }
            None => {
                let idx = rng.gen_range(0..pstate.spec.regions.len());
                pstate.spec.regions[idx].to_string()
            }
        };
        let region_idx = pstate
            .spec
            .regions
            .iter()
            .position(|r| *r == region)
            .expect("region validated above");

        // Mint a unique domain.
        let (fqdn, path) = loop {
            let parts = mint_parts(&mut rng, &spec_req, &region);
            let (fqdn, path) = format_for(spec_req.provider).generate(&parts);
            if !self.inner.functions.read().contains_key(&fqdn) {
                break (fqdn, path);
            }
        };

        self.publish_dns(&pstate, &region, &fqdn);

        let seed = rng.gen();
        let entry = Arc::new(FunctionEntry {
            fqdn: fqdn.clone(),
            region_idx,
            behavior: spec_req.behavior,
            auth_protected: spec_req.auth_protected,
            memory_mb: spec_req
                .memory_mb
                .unwrap_or(self.inner.config.default_memory_mb),
            exec_ms: spec_req
                .exec_ms
                .unwrap_or(self.inner.config.default_exec_ms),
            seed,
            deleted: AtomicBool::new(false),
            invocations: AtomicU64::new(0),
            envs: Mutex::new(Vec::new()),
        });
        self.inner.functions.write().insert(fqdn.clone(), entry);

        Ok(Deployed {
            fqdn,
            provider: spec_req.provider,
            region,
            path,
        })
    }

    /// Delete a function (§4.4 semantics).
    pub fn delete(&self, fqdn: &Fqdn) -> bool {
        let Some(entry) = self.inner.functions.read().get(fqdn).cloned() else {
            return false;
        };
        entry.deleted.store(true, Ordering::Relaxed);
        // Withdraw the exact DNS records. Wildcard zones still answer for
        // the name; Tencent's wildcard-less zone turns it into NXDOMAIN.
        let mut resolver = self.resolver.write();
        if let Some(zone) = resolver.zone_for_mut(fqdn) {
            zone.remove(fqdn);
        }
        resolver.flush_cache();
        true
    }

    /// Lazily build a provider's state: region ingress plans, DNS zone,
    /// listeners.
    fn provider_state(&self, provider: ProviderId) -> Arc<ProviderState> {
        if let Some(state) = self.inner.providers.read().get(&provider) {
            return state.clone();
        }
        // Double-checked under the write lock: two racing first-deploys
        // must not both build the state — the loser's zone would be
        // registered twice and shadow the winner's records.
        let mut providers = self.inner.providers.write();
        if let Some(state) = providers.get(&provider) {
            return state.clone();
        }
        let pspec = spec(provider);
        let provider_idx = ProviderId::ALL
            .iter()
            .position(|p| *p == provider)
            .expect("provider in catalogue") as u8;

        let mut regions = HashMap::new();
        for (r_idx, region) in pspec.regions.iter().enumerate() {
            regions.insert(
                region.to_string(),
                plan_region_ingress(&pspec, provider_idx, r_idx as u8, region),
            );
        }
        let state = Arc::new(ProviderState {
            spec: pspec,
            regions,
        });

        self.create_zone(&state);
        self.install_listeners(&state);

        providers.insert(provider, state.clone());
        state
    }

    /// Pre-register a provider's zone and listeners. Parallel world
    /// generation calls this for every probed provider, in catalogue
    /// order, before fanning out: zone registration order then matches a
    /// serial run instead of depending on which worker deploys first.
    pub fn warm_provider(&self, provider: ProviderId) {
        if provider != ProviderId::Azure {
            let _ = self.provider_state(provider);
        }
    }
}

fn mint_parts(rng: &mut SmallRng, spec_req: &DeploySpec, region: &str) -> UrlParts {
    let format = format_for(spec_req.provider);
    let alphabet: &[u8] = if spec_req.provider == ProviderId::Aliyun {
        b"abcdefghijklmnopqrstuvwxyz"
    } else {
        b"abcdefghijklmnopqrstuvwxyz0123456789"
    };
    let random: String = (0..format.random_len.max(8))
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
        .collect();
    let random = if format.random_len > 0 {
        random[..format.random_len].to_string()
    } else {
        random
    };
    let fname = spec_req.fname.clone().unwrap_or_else(|| {
        let names = [
            "api", "webhook", "hello", "svc", "worker", "handler", "app", "fn", "gateway", "task",
        ];
        format!(
            "{}{}",
            names[rng.gen_range(0..names.len())],
            rng.gen_range(0..10_000)
        )
    });
    let account = spec_req
        .account_id
        .unwrap_or_else(|| rng.gen_range(1_250_000_000u64..1_399_999_999));
    UrlParts {
        fname,
        pname: format!("proj{}", rng.gen_range(0..10_000)),
        user_id: format!("{account:010}"),
        random,
        region: region.to_string(),
    }
}

impl CloudPlatform {
    fn create_zone(&self, state: &ProviderState) {
        let origin = Fqdn::parse(state.spec.id.domain_suffix()).expect("valid suffix");
        let mut zone = Zone::new(origin.clone());
        let ttl = self.inner.config.record_ttl;

        // Register CNAME targets (ingress A records) once per region.
        // Walk regions in spec order: HashMap iteration order is not
        // stable across processes, and zone insertion order is visible
        // to `zone_for`'s longest-origin tie-break.
        let mut third_party: Vec<(Fqdn, Ipv4Addr)> = Vec::new();
        for ingress in state.spec.regions.iter().map(|r| &state.regions[*r]) {
            for (i, cname) in ingress.cnames.iter().enumerate() {
                let ip = ingress.v4[i % ingress.v4.len()];
                if cname.has_suffix(origin.as_str()) {
                    zone.add(cname.clone(), Rdata::V4(ip), ttl);
                    // IBM-style AAAA via the CNAME front.
                    if let Some(v6) = ingress.v6.get(i) {
                        zone.add(cname.clone(), Rdata::V6(*v6), ttl);
                    }
                } else {
                    third_party.push((cname.clone(), ip));
                }
            }
        }
        if state.spec.wildcard_dns {
            // Wildcard resolves unknown names to the first region's first
            // ingress node.
            let first = state
                .spec
                .regions
                .first()
                .and_then(|r| state.regions.get(*r))
                .expect("provider has regions");
            let mut recs = vec![(Rdata::V4(first.v4[0]), ttl)];
            if let Some(v6) = first.v6.first() {
                recs.push((Rdata::V6(*v6), ttl));
            }
            zone.set_wildcard(recs);
        }

        let mut resolver = self.resolver.write();
        resolver.add_zone(zone);
        // Third-party ingress (telecom operators, CDN) live in their own
        // zones — the dependency §4.2 flags as a risk.
        for (cname, ip) in third_party {
            // Merge into an existing zone for the same origin if one is
            // already registered: two zones with equal origins would
            // shadow each other in `zone_for` and make resolution depend
            // on insertion order.
            if let Some(z) = resolver.zone_for_mut(&cname) {
                z.add(cname.clone(), Rdata::V4(ip), self.inner.config.record_ttl);
                continue;
            }
            let tp_origin = Fqdn::parse(&cname.last_labels(2)).expect("valid");
            let mut tp_zone = Zone::new(tp_origin);
            tp_zone.add(cname.clone(), Rdata::V4(ip), self.inner.config.record_ttl);
            resolver.add_zone(tp_zone);
        }
    }

    fn install_listeners(&self, state: &ProviderState) {
        let cert = state.spec.cert_pattern();
        let provider = state.spec.id;
        let mut addrs: Vec<Ipv4Addr> = state
            .regions
            .values()
            .flat_map(|r| r.v4.iter().copied())
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        for ip in addrs {
            for (port, tls) in [(80u16, false), (443u16, true)] {
                let inner = self.inner.clone();
                let cert = cert.clone();
                let addr = SocketAddr::new(IpAddr::V4(ip), port);
                self.net
                    .listen_fn(addr, move |mut conn: Box<dyn Connection>| {
                        // Idle timeout: on a lossy network a client's dropped
                        // handshake or request must not pin this handler
                        // thread forever.
                        let _ = conn.set_read_timeout(Some(std::time::Duration::from_secs(60)));
                        let mut conn = if tls {
                            match TlsServer::accept(conn, &cert) {
                                Ok((c, _sni)) => c,
                                Err(_) => return,
                            }
                        } else {
                            conn
                        };
                        let limits = Limits::default();
                        let inner = inner.clone();
                        serve_connection(conn.as_mut(), &limits, &move |req: &Request| {
                            inner.route(provider, req)
                        });
                    });
            }
        }
    }

    fn publish_dns(&self, state: &ProviderState, region: &str, fqdn: &Fqdn) {
        let ingress = state.regions.get(region).expect("region planned");
        let ttl = self.inner.config.record_ttl;
        let mut resolver = self.resolver.write();
        let zone = resolver
            .zone_for_mut(fqdn)
            .expect("provider zone registered");
        match state.spec.ingress {
            IngressArch::DirectIp { .. } => {
                // Deterministic node choice per function.
                let pick = stable_hash(fqdn.as_str()) as usize;
                zone.add(
                    fqdn.clone(),
                    Rdata::V4(ingress.v4[pick % ingress.v4.len()]),
                    ttl,
                );
                if !ingress.v6.is_empty() {
                    zone.add(
                        fqdn.clone(),
                        Rdata::V6(ingress.v6[pick % ingress.v6.len()]),
                        ttl,
                    );
                }
            }
            IngressArch::Anycast { .. } => {
                for ip in &ingress.v4 {
                    zone.add(fqdn.clone(), Rdata::V4(*ip), ttl);
                }
                for ip in &ingress.v6 {
                    zone.add(fqdn.clone(), Rdata::V6(*ip), ttl);
                }
            }
            IngressArch::CnameLb { .. } => {
                let pick = stable_hash(fqdn.as_str()) as usize;
                let target = &ingress.cnames[pick % ingress.cnames.len()];
                zone.add(fqdn.clone(), Rdata::Name(target.clone()), ttl);
            }
        }
    }
}

impl PlatformInner {
    /// Route one HTTP request arriving at an ingress node.
    fn route(&self, provider: ProviderId, req: &Request) -> Response {
        let Some(host) = req.host().and_then(|h| Fqdn::parse(h).ok()) else {
            return Response::text(400, "missing host header");
        };
        let entry = self.functions.read().get(&host).cloned();
        let Some(entry) = entry else {
            self.stats.unknown_host.fetch_add(1, Ordering::Relaxed);
            return provider_404(provider);
        };
        if entry.deleted.load(Ordering::Relaxed) {
            self.stats.deleted_hits.fetch_add(1, Ordering::Relaxed);
            let status = spec(provider).deleted_status;
            return Response::json(
                status,
                &format!(r#"{{"message":"Function not found: {host}"}}"#),
            );
        }
        if entry.auth_protected {
            let authed = req.headers.get("authorization").is_some();
            if !authed {
                let mut r = Response::json(401, r#"{"message":"Missing Authentication Token"}"#);
                r.headers.insert("WWW-Authenticate", "IAM");
                return r;
            }
        }

        // Cold/warm environment accounting (virtual time).
        let now = self.clock_ms.load(Ordering::Relaxed);
        let cold = {
            let mut envs = entry.envs.lock();
            envs.retain(|last| now.saturating_sub(*last) <= self.config.warm_keepalive_ms);
            match envs.iter_mut().min_by_key(|l| **l) {
                Some(slot) => {
                    *slot = now;
                    false
                }
                None => {
                    envs.push(now);
                    true
                }
            }
        };
        self.stats.invocations.fetch_add(1, Ordering::Relaxed);
        if cold {
            self.stats.cold_starts.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.warm_starts.fetch_add(1, Ordering::Relaxed);
        }
        let inv_no = entry.invocations.fetch_add(1, Ordering::Relaxed);

        // Egress IP allocation: rotate through the provider-region pool.
        let pstate_idx = ProviderId::ALL
            .iter()
            .position(|p| *p == provider)
            .unwrap_or(0) as u8;
        let egress_ip = egress_ip(
            pstate_idx,
            entry.region_idx as u8,
            (inv_no % u64::from(self.config.egress_pool_size)) as u8,
        );

        let mut ctx = BehaviorContext {
            rng: SmallRng::seed_from_u64(entry.seed ^ inv_no),
            egress_ip,
            fqdn: entry.fqdn.to_string(),
        };
        let exec_ms = entry.exec_ms + if cold { self.config.cold_start_ms } else { 0 };
        self.billing
            .lock()
            .record(&entry.fqdn, entry.memory_mb, exec_ms);

        match entry.behavior.respond(req, &mut ctx) {
            Outcome::Respond(resp) => resp,
            Outcome::Hang => {
                // On virtual time this parks the handler as a timer
                // event; the probing client's shorter timeout fires
                // first, exactly as with a real hang.
                self.net_clock
                    .sleep(std::time::Duration::from_millis(self.config.hang_ms));
                Response::new(504)
            }
        }
    }
}

/// Wildcard-served page for unknown hosts.
fn provider_404(provider: ProviderId) -> Response {
    match provider {
        ProviderId::Aws => Response::json(403, r#"{"Message":"Forbidden"}"#),
        _ => Response::json(
            404,
            r#"{"code":"ResourceNotFound","message":"no such function"}"#,
        ),
    }
}

/// Deterministic ingress/egress address plans.
fn plan_region_ingress(
    pspec: &ProviderSpec,
    provider_idx: u8,
    region_idx: u8,
    region: &str,
) -> RegionIngress {
    let v4 = |k: u8| Ipv4Addr::new(203, provider_idx + 1, region_idx, 10 + k);
    let v6 = |k: u8| -> Ipv6Addr {
        Ipv6Addr::new(
            0x2001,
            0x0db8,
            u16::from(provider_idx),
            u16::from(region_idx),
            0,
            0,
            0,
            u16::from(k) + 1,
        )
    };
    match pspec.ingress {
        IngressArch::DirectIp {
            v4_per_region,
            v6_per_region,
        } => RegionIngress {
            v4: (0..v4_per_region).map(v4).collect(),
            v6: (0..v6_per_region).map(v6).collect(),
            cnames: Vec::new(),
        },
        IngressArch::Anycast { v4: n4, v6: n6 } => RegionIngress {
            // Anycast: region-independent node set (region_idx fixed to 0).
            v4: (0..n4)
                .map(|k| Ipv4Addr::new(203, provider_idx + 1, 0, 10 + k))
                .collect(),
            v6: (0..n6)
                .map(|k| {
                    Ipv6Addr::new(
                        0x2001,
                        0x0db8,
                        u16::from(provider_idx),
                        0,
                        0,
                        0,
                        0,
                        u16::from(k) + 1,
                    )
                })
                .collect(),
            cnames: Vec::new(),
        },
        IngressArch::CnameLb {
            cnames_per_region,
            third_party_suffix,
        } => {
            let v4s: Vec<Ipv4Addr> = (0..cnames_per_region).map(v4).collect();
            let has_v6 = pspec.has_ipv6();
            let v6s: Vec<Ipv6Addr> = if has_v6 {
                (0..cnames_per_region).map(v6).collect()
            } else {
                Vec::new()
            };
            let cnames = (0..cnames_per_region)
                .map(|k| {
                    let host = match third_party_suffix {
                        Some(suffix) => format!("{region}-lb{k}.{suffix}"),
                        None => format!("{region}-ingress{k}.{}", pspec.id.domain_suffix()),
                    };
                    Fqdn::parse(&host).expect("valid cname target")
                })
                .collect();
            RegionIngress {
                v4: v4s,
                v6: v6s,
                cnames,
            }
        }
    }
}

/// Egress IPs: a distinct address space from ingress (34.x like a real
/// cloud's egress ranges).
fn egress_ip(provider_idx: u8, region_idx: u8, slot: u8) -> Ipv4Addr {
    Ipv4Addr::new(34, 100 + provider_idx, region_idx, 100 + slot)
}

fn stable_hash(s: &str) -> u64 {
    fw_types::fnv::fnv1a(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_http::client::{ClientConfig, HttpClient, SimDialer};
    use fw_http::url::Url;
    use fw_types::RecordType;

    fn make_platform() -> (CloudPlatform, SimNet, Arc<RwLock<Resolver>>) {
        let net = SimNet::new(99);
        let resolver = Arc::new(RwLock::new(Resolver::new()));
        let platform = CloudPlatform::new(
            net.clone(),
            resolver.clone(),
            PlatformConfig {
                hang_ms: 100,
                ..PlatformConfig::default()
            },
        );
        (platform, net, resolver)
    }

    fn resolve_v4(resolver: &Arc<RwLock<Resolver>>, fqdn: &Fqdn) -> Ipv4Addr {
        let res = resolver
            .read()
            .resolve(fqdn, RecordType::A, 0)
            .expect("resolvable");
        match res.addresses().first().expect("has address") {
            Rdata::V4(ip) => *ip,
            other => panic!("expected v4, got {other:?}"),
        }
    }

    fn fetch(net: &SimNet, resolver: &Arc<RwLock<Resolver>>, fqdn: &Fqdn, https: bool) -> Response {
        let ip = resolve_v4(resolver, fqdn);
        let client = HttpClient::new(
            SimDialer::new(net.clone()),
            ClientConfig {
                read_timeout: std::time::Duration::from_millis(500),
                ..ClientConfig::default()
            },
        );
        let url = Url::for_domain(fqdn.as_str(), https);
        client
            .get_url(SocketAddr::new(IpAddr::V4(ip), url.port), &url)
            .expect("fetch ok")
    }

    #[test]
    fn deploy_resolve_invoke_end_to_end() {
        let (platform, net, resolver) = make_platform();
        let d = platform
            .deploy(DeploySpec::new(
                ProviderId::Aws,
                Behavior::JsonApi {
                    service: "greeter".into(),
                },
            ))
            .unwrap();
        assert!(format_for(ProviderId::Aws).matches(&d.fqdn));
        let resp = fetch(&net, &resolver, &d.fqdn, true);
        assert_eq!(resp.status, 200);
        assert!(resp.body_text().contains("greeter"));
        assert_eq!(platform.invocation_count(&d.fqdn), 1);
    }

    #[test]
    fn cname_chain_for_aliyun() {
        let (platform, net, resolver) = make_platform();
        let d = platform
            .deploy(DeploySpec::new(
                ProviderId::Aliyun,
                Behavior::HtmlPage {
                    title: "shop".into(),
                },
            ))
            .unwrap();
        let res = resolver.read().resolve(&d.fqdn, RecordType::A, 0).unwrap();
        // Chain: function CNAME → ingress A.
        assert!(res.answers[0].1.rtype() == RecordType::Cname);
        assert!(!res.addresses().is_empty());
        let resp = fetch(&net, &resolver, &d.fqdn, true);
        assert_eq!(resp.status, 200);
        assert!(resp.body_text().contains("shop"));
    }

    #[test]
    fn baidu_cname_lands_on_third_party() {
        let (platform, _net, resolver) = make_platform();
        let d = platform
            .deploy(DeploySpec::new(ProviderId::Baidu, Behavior::EmptyOk))
            .unwrap();
        let res = resolver.read().resolve(&d.fqdn, RecordType::A, 0).unwrap();
        let cname = res
            .answers
            .iter()
            .find_map(|(_, r)| match r {
                Rdata::Name(n) => Some(n.clone()),
                _ => None,
            })
            .expect("has cname");
        assert!(cname.as_str().contains("example-telecom"), "{cname}");
    }

    #[test]
    fn tencent_delete_causes_nxdomain_aws_delete_keeps_resolving() {
        let (platform, net, resolver) = make_platform();
        let t = platform
            .deploy(DeploySpec::new(ProviderId::Tencent, Behavior::EmptyOk))
            .unwrap();
        let a = platform
            .deploy(DeploySpec::new(ProviderId::Aws, Behavior::EmptyOk))
            .unwrap();
        // Both resolve while alive.
        resolve_v4(&resolver, &t.fqdn);
        resolve_v4(&resolver, &a.fqdn);

        platform.delete(&t.fqdn);
        platform.delete(&a.fqdn);

        // Tencent: NXDOMAIN.
        let err = resolver
            .read()
            .resolve(&t.fqdn, RecordType::A, 10_000)
            .unwrap_err();
        assert_eq!(err, fw_dns::ResolveError::NxDomain);

        // AWS: wildcard still resolves; the ingress answers 403.
        let resp = fetch(&net, &resolver, &a.fqdn, true);
        assert_eq!(resp.status, 403);
    }

    #[test]
    fn deleted_non_aws_function_returns_404() {
        let (platform, net, resolver) = make_platform();
        let d = platform
            .deploy(DeploySpec::new(ProviderId::Google2, Behavior::EmptyOk))
            .unwrap();
        platform.delete(&d.fqdn);
        let resp = fetch(&net, &resolver, &d.fqdn, true);
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn auth_protected_function_returns_401() {
        let (platform, net, resolver) = make_platform();
        let d = platform
            .deploy(
                DeploySpec::new(
                    ProviderId::Aws,
                    Behavior::JsonApi {
                        service: "secret".into(),
                    },
                )
                .with_auth(),
            )
            .unwrap();
        let resp = fetch(&net, &resolver, &d.fqdn, true);
        assert_eq!(resp.status, 401);
    }

    #[test]
    fn internal_only_times_out() {
        let (platform, net, resolver) = make_platform();
        let d = platform
            .deploy(DeploySpec::new(ProviderId::Aws, Behavior::InternalOnly))
            .unwrap();
        let ip = resolve_v4(&resolver, &d.fqdn);
        let client = HttpClient::new(
            SimDialer::new(net),
            ClientConfig {
                read_timeout: std::time::Duration::from_millis(30),
                ..ClientConfig::default()
            },
        );
        let url = Url::for_domain(d.fqdn.as_str(), true);
        match client.get_url(SocketAddr::new(IpAddr::V4(ip), 443), &url) {
            Err(fw_http::client::FetchError::Http(e)) => assert!(e.is_timeout()),
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn http_port_80_works_without_tls() {
        let (platform, net, resolver) = make_platform();
        let d = platform
            .deploy(DeploySpec::new(
                ProviderId::Aliyun,
                Behavior::PlainLog { tag: "svc".into() },
            ))
            .unwrap();
        let resp = fetch(&net, &resolver, &d.fqdn, false);
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn cold_then_warm_starts() {
        let (platform, net, resolver) = make_platform();
        let d = platform
            .deploy(DeploySpec::new(ProviderId::Aws, Behavior::EmptyOk))
            .unwrap();
        fetch(&net, &resolver, &d.fqdn, true);
        fetch(&net, &resolver, &d.fqdn, true);
        assert_eq!(platform.stats().cold_starts.load(Ordering::Relaxed), 1);
        assert_eq!(platform.stats().warm_starts.load(Ordering::Relaxed), 1);
        // Long idle → environment expires → cold again.
        platform.advance_ms(2_000_000);
        fetch(&net, &resolver, &d.fqdn, true);
        assert_eq!(platform.stats().cold_starts.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn billing_meters_invocations() {
        let (platform, net, resolver) = make_platform();
        let d = platform
            .deploy(DeploySpec::new(ProviderId::Aws, Behavior::EmptyOk))
            .unwrap();
        for _ in 0..3 {
            fetch(&net, &resolver, &d.fqdn, true);
        }
        let usage = platform.with_billing(|b| b.usage(&d.fqdn));
        assert_eq!(usage.invocations, 3);
        assert!(usage.gb_seconds > 0.0);
    }

    #[test]
    fn google_anycast_single_node() {
        let (platform, _net, resolver) = make_platform();
        let a = platform
            .deploy(DeploySpec::new(ProviderId::Google, Behavior::EmptyOk).in_region("us-central1"))
            .unwrap();
        let b = platform
            .deploy(
                DeploySpec::new(ProviderId::Google, Behavior::EmptyOk).in_region("europe-west1"),
            )
            .unwrap();
        // Same ingress node regardless of region (anycast).
        assert_eq!(
            resolve_v4(&resolver, &a.fqdn),
            resolve_v4(&resolver, &b.fqdn)
        );
    }

    #[test]
    fn unknown_region_rejected() {
        let (platform, _net, _resolver) = make_platform();
        let err = platform
            .deploy(DeploySpec::new(ProviderId::Aws, Behavior::EmptyOk).in_region("mars-north-1"))
            .unwrap_err();
        assert!(matches!(err, DeployError::UnknownRegion { .. }));
    }

    #[test]
    fn azure_not_deployable() {
        let (platform, _net, _resolver) = make_platform();
        assert_eq!(
            platform
                .deploy(DeploySpec::new(ProviderId::Azure, Behavior::EmptyOk))
                .unwrap_err(),
            DeployError::UnsupportedProvider(ProviderId::Azure)
        );
    }

    #[test]
    fn wildcard_resolves_never_deployed_names() {
        let (platform, _net, resolver) = make_platform();
        // Deploying anything on AWS registers the zone with a wildcard.
        platform
            .deploy(DeploySpec::new(ProviderId::Aws, Behavior::EmptyOk))
            .unwrap();
        let ghost = Fqdn::parse("neverdeployed.lambda-url.us-east-1.on.aws").unwrap();
        resolve_v4(&resolver, &ghost); // must not panic
    }
}
