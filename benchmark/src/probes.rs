//! Per-layer micro-probes, run by every traced run.
//!
//! Each probe times one public function of one layer on seeded inputs of a
//! fixed size, in batches, and reports the median batch. They do not depend
//! on which workload was selected: they are the per-layer ruler that the
//! end-to-end numbers are read against (which end-to-end metric each probe
//! should move is in `README.md` and beside its declaration in `report.rs`).

use crate::report::Values;
use crate::spans::{SpanId, Tracer};
use crate::stats::median;
use crate::{derive_seed, Size};
use icn_cache::policy::PolicyKind;
use icn_cache::slot::CacheSlot;
use icn_core::config::ExperimentConfig;
use icn_core::costs::CostTable;
use icn_core::design::DesignKind;
use icn_core::dir::ReplicaMasks;
use icn_core::instrument::SimObs;
use icn_core::latency::LatencyModel;
use icn_core::sweep::Scenario;
use icn_core::Simulator;
use icn_topology::{pop, AccessTree, Network};
use icn_workload::origin::{assign_origins, OriginPolicy};
use icn_workload::trace::{Region, Trace, TraceIter};
use icn_workload::zipf::Zipf;
use idicn::crypto::mss::Identity;
use idicn::crypto::{digest, sha256};
use idicn::http::{self, HttpRequest, HttpResponse};
use idicn::metalink::Metadata;
use idicn::origin::OriginServer;
use idicn::proxy::EdgeProxy;
use idicn::resolver::{registration_bytes, Registration, Resolver, ResolverClient};
use idicn::reverse_proxy::ReverseProxy;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::hint::black_box;
use std::io::{BufReader, Cursor};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// Batches per probe; the median batch is reported.
const BATCHES: usize = 5;

/// What the probes share: where spans go and how much work a batch does.
struct Probes<'a> {
    seed: u64,
    tracer: &'a Tracer,
    size: Size,
}

impl Probes<'_> {
    /// Median over [`BATCHES`] batches of the mean seconds per call of `f`,
    /// each batch making `calls` calls (a tenth of that at smoke size). The
    /// whole probe is one span.
    fn per_call(&self, name: &'static str, calls: usize, mut f: impl FnMut(usize)) -> f64 {
        let calls = match self.size {
            Size::Full => calls,
            Size::Smoke => (calls / 10).max(1),
        };
        self.tracer.span(name, SpanId::NONE, 0, |_| {
            let mut batches = Vec::with_capacity(BATCHES);
            for b in 0..BATCHES {
                let t = Instant::now();
                for i in 0..calls {
                    f(b * calls + i);
                }
                batches.push(t.elapsed().as_secs_f64() / calls as f64);
            }
            median(&mut batches)
        })
    }
}

/// Every micro-probe of both products.
pub fn run_all(seed: u64, tracer: &Tracer, size: Size) -> Values {
    let p = Probes { seed, tracer, size };
    let mut v = Values::new();
    sim_probes(&p, &mut v);
    idicn_probes(&p, &mut v);
    v
}

fn sim_probes(p: &Probes, v: &mut Values) {
    let seed = p.seed;
    let mut trace_cfg = Region::Asia.config(0.25);
    trace_cfg.seed = derive_seed(seed, 1);
    let topos = pop::paper_topologies();
    let tree = AccessTree::baseline();
    let n = topos.len();

    // Scenario construction, one public call at a time, over the 8 paper
    // topologies at the workloads' scale.
    let s = p.per_call("topology.network_new", n, |i| {
        black_box(Network::new(topos[i % n].clone(), tree));
    });
    v.insert("topology.network_new_ms".into(), s * 1e3);
    let nets: Vec<Network> = topos
        .iter()
        .map(|g| Network::new(g.clone(), tree))
        .collect();
    let requests = trace_cfg.requests as f64;
    let s = p.per_call("workload.synthesize", n, |i| {
        let net = &nets[i % n];
        black_box(Trace::synthesize(
            trace_cfg.clone(),
            &net.core.populations,
            net.leaves_per_pop(),
        ));
    });
    v.insert("workload.synthesize_req_per_s".into(), requests / s);
    let s = p.per_call("workload.stream", n, |i| {
        let net = &nets[i % n];
        let iter = TraceIter::new(&trace_cfg, &net.core.populations, net.leaves_per_pop());
        black_box(iter.fold(0u64, |acc, r| acc + u64::from(r.object)));
    });
    v.insert("workload.stream_req_per_s".into(), requests / s);
    let s = p.per_call("workload.assign_origins", n, |i| {
        black_box(assign_origins(
            OriginPolicy::PopulationProportional,
            trace_cfg.objects,
            &nets[i % n].core.populations,
            trace_cfg.seed,
        ));
    });
    v.insert("workload.assign_origins_ms".into(), s * 1e3);
    let s = p.per_call("core.costs.table_new", n, |i| {
        black_box(CostTable::new(&nets[i % n], LatencyModel::Unit));
    });
    v.insert("core.costs.table_new_ms".into(), s * 1e3);

    // Cost lookups over random router pairs of the largest topology.
    let att = &nets[n - 1];
    let table = CostTable::new(att, LatencyModel::Unit);
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 20));
    let pairs: Vec<(u32, u32)> = (0..1 << 16)
        .map(|_| {
            (
                rng.gen_range(0..att.node_count()),
                rng.gen_range(0..att.node_count()),
            )
        })
        .collect();
    let mut acc = 0.0;
    let s = p.per_call("core.costs.path_cost", pairs.len(), |i| {
        let (a, b) = pairs[i % pairs.len()];
        acc += table.path_cost(a, b);
    });
    black_box(acc);
    v.insert("core.costs.path_cost_ns".into(), s * 1e9);

    // Replica directory on a recorded pattern: Zipf objects, uniform
    // (pop, rank); updates alternate insert and remove of the same slot so
    // the directory stays at a steady fill.
    let objects = trace_cfg.objects as usize;
    let zipf = Zipf::new(objects, trace_cfg.alpha);
    let pattern: Vec<(u32, u32, u32)> = (0..1 << 16)
        .map(|_| {
            (
                zipf.sample(&mut rng) as u32,
                rng.gen_range(0..att.pops()),
                rng.gen_range(0..att.nodes_per_pop()),
            )
        })
        .collect();
    let mut masks = ReplicaMasks::new(objects);
    for &(o, pop, rank) in &pattern {
        masks.insert(o, pop, rank);
    }
    let s = p.per_call("core.dir.update", pattern.len(), |i| {
        let (o, pop, rank) = pattern[i % pattern.len()];
        if (i / pattern.len()).is_multiple_of(2) {
            masks.remove(o, pop, rank);
        } else {
            masks.insert(o, pop, rank);
        }
    });
    v.insert("core.dir.update_ns".into(), s * 1e9);
    for &(o, pop, rank) in &pattern {
        masks.insert(o, pop, rank);
    }
    let mut best = 0u64;
    let s = p.per_call("core.dir.lookup", pattern.len(), |i| {
        let (o, _, _) = pattern[i % pattern.len()];
        for &(pop, mask) in masks.entries(o) {
            best = best.wrapping_add(u64::from(pop) + u64::from(mask.trailing_zeros()));
        }
    });
    black_box(best);
    v.insert("core.dir.lookup_ns".into(), s * 1e9);

    // Cache policies at capacity under Zipf keys: the simulator's probe,
    // then touch on a hit or insert (with eviction) on a miss.
    let keys: Vec<u64> = (0..1 << 16).map(|_| zipf.sample(&mut rng) as u64).collect();
    let capacity = objects / 20;
    for (name, span, kind) in [
        ("cache.lru.op_ns", "cache.lru", PolicyKind::Lru),
        ("cache.lfu.op_ns", "cache.lfu", PolicyKind::Lfu),
        ("cache.fifo.op_ns", "cache.fifo", PolicyKind::Fifo),
        (
            "cache.prob.op_ns",
            "cache.prob",
            PolicyKind::Prob { admit_pct: 50 },
        ),
        (
            "cache.ttl.op_ns",
            "cache.ttl",
            PolicyKind::Ttl { ttl: 20_000 },
        ),
        ("cache.tinylfu.op_ns", "cache.tinylfu", PolicyKind::TinyLfu),
    ] {
        let mut slot = CacheSlot::build(kind, capacity);
        for (i, &k) in keys.iter().enumerate() {
            slot.insert_at(k, i as u64);
        }
        let s = p.per_call(span, keys.len(), |i| {
            let k = keys[i % keys.len()];
            if slot.contains(k) {
                slot.touch(k);
            } else {
                black_box(slot.insert_at(k, (keys.len() + i) as u64));
            }
        });
        v.insert(name.into(), s * 1e9);
    }

    // Simulator construction and the profiler's cost, on one mid-sized
    // topology: ICN-NR with and without a `Profiler` attached.
    let scenario = Scenario::build(
        pop::sprint(),
        tree,
        trace_cfg.clone(),
        OriginPolicy::PopulationProportional,
    );
    let cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
    let s = p.per_call("core.sim.new", 8, |_| {
        black_box(Simulator::new(
            &scenario.net,
            cfg.clone(),
            &scenario.origins,
            &scenario.trace.object_sizes,
        ));
    });
    v.insert("core.sim.new_ms".into(), s * 1e3);
    let plain = p.per_call("obs.plain_run", 1, |_| {
        black_box(scenario.run_config(cfg.clone()));
    });
    let profiler = icn_obs::Profiler::new();
    let registry = icn_obs::Registry::new();
    let profiled = p.per_call("obs.profiled_run", 1, |_| {
        let obs = SimObs::new(&registry, "probe").with_profiler(&profiler);
        black_box(scenario.run_config_instrumented(cfg.clone(), obs));
    });
    v.insert(
        "obs.profiler_overhead_pct".into(),
        (profiled / plain - 1.0) * 100.0,
    );
}

fn idicn_probes(p: &Probes, v: &mut Values) {
    let seed = p.seed;
    const PER_CLASS: usize = 8;
    let sizes = crate::idicn_load::SIZE_CLASSES;
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 30));

    // Crypto primitives.
    // 2^10 one-time keys, as the workloads' publisher has (2^7 at smoke
    // size, as theirs).
    let height = if p.size == Size::Full { 10 } else { 7 };
    let s = p.per_call("idicn.crypto.keygen", 1, |i| {
        black_box(Identity::generate(
            &mut StdRng::seed_from_u64(derive_seed(seed, 31 + i as u64)),
            height,
        ));
    });
    v.insert("idicn.crypto.keygen_ms".into(), s * 1e3);
    let mut signer = Identity::generate(&mut rng, 9);
    let msg = digest(b"probe");
    let mut sig = None;
    let s = p.per_call("idicn.crypto.mss_sign", 32, |_| {
        sig = Some(signer.sign(&msg));
    });
    v.insert("idicn.crypto.mss_sign_us".into(), s * 1e6);
    let (sig, root) = (sig.expect("signed at least once"), signer.root());
    let s = p.per_call("idicn.crypto.mss_verify", 100, |_| {
        assert!(black_box(sig.verify(&msg, &root)));
    });
    v.insert("idicn.crypto.mss_verify_us".into(), s * 1e6);
    let mut mib = vec![0u8; 1 << 20];
    rng.fill_bytes(&mut mib);
    let s = p.per_call("idicn.crypto.sha256", 8, |_| {
        black_box(sha256::digest(&mib));
    });
    v.insert("idicn.crypto.sha256_mib_s".into(), 1.0 / s);

    // A probe world: PER_CLASS objects of each size class.
    let origin = OriginServer::new();
    let origin_srv = origin.serve().expect("origin binds");
    let resolver = Resolver::new();
    let resolver_srv = resolver.serve().expect("resolver binds");
    let client = ResolverClient::new(resolver_srv.addr());
    let rp = ReverseProxy::new(Identity::generate(&mut rng, 8), origin_srv.addr(), client);
    let rp_srv = rp.serve().expect("reverse proxy binds");
    let mut labels = Vec::new();
    let mut contents = Vec::new();
    for (c, &(_, bytes, _)) in sizes.iter().enumerate() {
        for i in 0..PER_CLASS {
            let mut body = vec![0u8; bytes];
            rng.fill_bytes(&mut body);
            let label = format!("probe-{c}-{i}");
            origin.add_content(&label, body.clone());
            labels.push(label);
            contents.push(body);
        }
    }
    let mut names = Vec::new();
    let s = p.per_call("idicn.reverse_proxy.publish", 1, |_| {
        // One batch publishes the whole set once; re-publishing re-signs.
        names.clear();
        for l in &labels {
            names.push(rp.publish(l).expect("publish on a healthy world"));
        }
    });
    v.insert(
        "idicn.reverse_proxy.publish_us".into(),
        s * 1e6 / labels.len() as f64,
    );

    // Signed registrations against the resolver, over HTTP.
    let mut registrar = Identity::generate(&mut rng, 8);
    let principal = idicn::Principal(registrar.principal_digest());
    let regs: Vec<Registration> = (0..BATCHES * 8)
        .map(|i| {
            let name =
                idicn::ContentName::new(&format!("reg-{i}"), principal).expect("a valid label");
            let locations = vec![format!("http://127.0.0.1:9/fetch/{}", name.to_flat())];
            let signature = registrar.sign(&digest(&registration_bytes(&name, &locations)));
            Registration {
                name,
                locations,
                publisher_root: registrar.root(),
                signature,
            }
        })
        .collect();
    let s = p.per_call("idicn.resolver.register", 8, |i| {
        client
            .register(&regs[i])
            .expect("a signed registration is accepted");
    });
    v.insert("idicn.resolver.register_us".into(), s * 1e6);

    // Resolver, reverse proxy and origin, one hop each.
    let mid = PER_CLASS; // first 16 KiB object
    let s = p.per_call("idicn.resolver.resolve_inproc", 20_000, |i| {
        black_box(resolver.resolve(&names[i % names.len()]));
    });
    v.insert("idicn.resolver.resolve_inproc_ns".into(), s * 1e9);
    let s = p.per_call("idicn.resolver.resolve_rtt", 100, |i| {
        client.resolve(&names[i % names.len()]).expect("resolves");
    });
    v.insert("idicn.resolver.resolve_rtt_us".into(), s * 1e6);
    let rp_path = format!("/fetch/{}", names[mid].to_flat());
    let s = p.per_call("idicn.reverse_proxy.fetch_rtt", 100, |_| {
        let r = http::http_get(rp_srv.addr(), &rp_path, &[]).expect("reverse proxy answers");
        assert!(r.is_success());
    });
    v.insert("idicn.reverse_proxy.fetch_rtt_us".into(), s * 1e6);
    let s = p.per_call("idicn.reverse_proxy.refetch_rtt", 50, |_| {
        rp.evict(&labels[mid]);
        let r = http::http_get(rp_srv.addr(), &rp_path, &[]).expect("reverse proxy answers");
        assert!(r.is_success());
    });
    v.insert("idicn.reverse_proxy.refetch_rtt_us".into(), s * 1e6);
    let origin_path = format!("/content/{}", labels[mid]);
    let s = p.per_call("idicn.origin.get_rtt", 100, |_| {
        let r = http::http_get(origin_srv.addr(), &origin_path, &[]).expect("origin answers");
        assert!(r.is_success());
    });
    v.insert("idicn.origin.get_rtt_us".into(), s * 1e6);

    // The edge proxy in-process: no client hop.
    let warm = EdgeProxy::new(client, names.len());
    for n in &names {
        warm.fetch(n).expect("warm fetch");
    }
    let s = p.per_call("idicn.proxy.fetch_inproc_hit", 2_000, |i| {
        let (_, _, hit) = warm.fetch(&names[i % names.len()]).expect("hit");
        assert!(hit);
    });
    v.insert("idicn.proxy.fetch_inproc_hit_us".into(), s * 1e6);
    let cold = EdgeProxy::new(client, 0); // capacity 0: nothing is ever kept
    let s = p.per_call("idicn.proxy.fetch_inproc_miss", 48, |i| {
        let (_, _, hit) = cold.fetch(&names[i % names.len()]).expect("miss");
        assert!(!hit);
    });
    v.insert("idicn.proxy.fetch_inproc_miss_us".into(), s * 1e6);

    // Metalink metadata: header codec and the verification chain per class.
    let (_, meta, _) = warm.fetch(&names[mid]).expect("hit");
    let mut headers = http::Headers::new();
    let s = p.per_call("idicn.metalink.to_headers", 500, |_| {
        headers = http::Headers::new();
        meta.to_headers(&mut headers);
    });
    v.insert("idicn.metalink.to_headers_us".into(), s * 1e6);
    let s = p.per_call("idicn.metalink.from_headers", 200, |_| {
        black_box(Metadata::from_headers(&headers).expect("round-trips"));
    });
    v.insert("idicn.metalink.from_headers_us".into(), s * 1e6);
    for (c, &(label, _, _)) in sizes.iter().enumerate() {
        let k = c * PER_CLASS;
        let (body, meta, _) = warm.fetch(&names[k]).expect("hit");
        assert!(*body == contents[k]);
        let s = p.per_call("idicn.metalink.verify", 20, |_| {
            meta.verify(&body).expect("verifies");
        });
        v.insert(format!("idicn.metalink.verify_us.{label}"), s * 1e6);
    }

    // HTTP codec on a 16 KiB response carrying metalink headers.
    let mut resp = HttpResponse::ok(contents[mid].clone());
    meta.to_headers(&mut resp.headers);
    let mut wire = Vec::new();
    let s = p.per_call("idicn.http.write_response", 1_000, |_| {
        wire.clear();
        http::write_response(&mut wire, &resp).expect("writes to memory");
    });
    v.insert("idicn.http.write_response_us".into(), s * 1e6);
    let s = p.per_call("idicn.http.parse_response", 500, |_| {
        let parsed = http::read_response(&mut Cursor::new(&wire)).expect("parses");
        black_box(parsed.expect("one response"));
    });
    v.insert("idicn.http.parse_response_us".into(), s * 1e6);
    let mut req = HttpRequest::get(format!("http://{}/", names[mid].to_fqdn()));
    req.headers.set("Host", names[mid].to_fqdn());
    req.headers.set(idicn::REQUEST_ID_HEADER, "bench-0-0");
    let mut req_wire = Vec::new();
    http::write_request(&mut req_wire, &req).expect("writes to memory");
    let s = p.per_call("idicn.http.parse_request", 5_000, |_| {
        let parsed = http::read_request(&mut Cursor::new(&req_wire)).expect("parses");
        black_box(parsed.expect("one request"));
    });
    v.insert("idicn.http.parse_request_ns".into(), s * 1e9);

    // One hop against a trivial handler: a fresh connection per request
    // (bounded below by the server's 1 ms accept poll), and a second
    // request on an established stream.
    let trivial = http::serve(Arc::new(|_req: &HttpRequest| {
        HttpResponse::ok(b"ok".to_vec())
    }))
    .expect("trivial server binds");
    let s = p.per_call("idicn.http.connect_rtt", 100, |_| {
        let r = http::http_get(trivial.addr(), "/", &[]).expect("answers");
        assert!(r.is_success());
    });
    v.insert("idicn.http.connect_rtt_us".into(), s * 1e6);
    let stream = TcpStream::connect(trivial.addr()).expect("connects");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let get = HttpRequest::get("/");
    let mut round_trip = || {
        http::write_request(&mut writer, &get).expect("writes");
        let r = http::read_response(&mut reader).expect("reads");
        assert!(r.expect("one response").is_success());
    };
    round_trip(); // the first request pays the accept; time the later ones
    let s = p.per_call("idicn.http.keepalive_rtt", 500, |_| round_trip());
    v.insert("idicn.http.keepalive_rtt_us".into(), s * 1e6);
}
