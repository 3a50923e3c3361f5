//! Wire-decoder fuzz: arbitrary, truncated, and corrupted byte frames
//! must produce structured errors, never panics.
//!
//! The decoders sit on the trust boundary — any peer can hand them any
//! bytes — so "malformed input" must always surface as a [`WireError`]
//! (which the server maps to an error code) or a [`FrameError`],
//! and never as a panic that takes the connection thread down. The
//! properties below drive >10k generated cases per run through
//! `Request::decode`, `Response::decode`, and `read_frame`:
//!
//! - totally arbitrary tag/payload frames;
//! - valid frames truncated at every possible and at random offsets;
//! - valid frames with a corrupted (bit-flipped) interior byte;
//! - valid frames with junk appended (length-exactness: must error);
//! - arbitrary byte streams fed to the frame reader under several caps;
//! - arbitrary byte streams split into random chunks with would-blocks
//!   between them, read through the frame decoder's two drives.
//!
//! Failures reproduce exactly: the harness prints the failing seed, and
//! `CONSECA_PROPTEST_SEED=<seed>` replays it.

use conseca_core::{ArgConstraint, Policy, PolicyEntry, Predicate, TrustedContext};
use conseca_engine::TenantCounters;
use std::io::{self, Read};

use conseca_serve::wire::{
    read_frame, write_frame, Frame, FrameDecoder, FrameError, Request, Response,
    DEFAULT_MAX_FRAME_LEN,
};
use conseca_shell::ApiCall;
use proptest::collection::vec;
use proptest::prelude::*;

fn sample_context() -> TrustedContext {
    let mut ctx = TrustedContext::for_user("alice");
    ctx.date = "2025-05-14".into();
    ctx.usernames = vec!["alice".into(), "bob".into()];
    ctx.email_addresses = vec!["alice@work.com".into()];
    ctx.fs_tree = "alice/\n  Documents/\n".into();
    ctx
}

fn sample_policy() -> Policy {
    let mut policy = Policy::new("respond to urgent work emails");
    policy.set(
        "send_email",
        PolicyEntry::allow(
            vec![
                ArgConstraint::regex("^alice$").unwrap(),
                ArgConstraint::Dsl(Predicate::All(vec![
                    Predicate::Suffix("@work.com".into()),
                    Predicate::Not(Box::new(Predicate::Contains("..".into()))),
                ])),
            ],
            "alice answers",
        ),
    );
    policy.set("delete_email", PolicyEntry::deny("no deletions"));
    policy
}

fn sample_requests() -> Vec<Request> {
    let ctx = sample_context();
    let call = ApiCall::new("email", "send_email", vec!["alice".into(), "b@work.com".into()]);
    vec![
        Request::Hello { version: conseca_serve::PROTOCOL_VERSION },
        Request::Check {
            tenant: "acme".into(),
            task: "t".into(),
            context: ctx.clone(),
            call: call.clone(),
        },
        Request::CheckBatch {
            tenant: "acme".into(),
            task: "t".into(),
            context: ctx.clone(),
            calls: vec![call, ApiCall::new("fs", "ls", vec![])],
        },
        Request::Install {
            tenant: "acme".into(),
            task: "t".into(),
            context: ctx.clone(),
            policy: sample_policy(),
        },
        Request::FetchPolicy { tenant: "acme".into(), task: "t".into(), context: ctx.clone() },
        Request::Flush { tenant: "acme".into() },
        Request::Stats { tenant: "acme".into() },
        Request::Revoke { tenant: "acme".into(), fingerprint: 0xfeed_f00d },
        Request::Reload {
            tenant: "acme".into(),
            task: "t".into(),
            context: ctx,
            policy: sample_policy(),
        },
        Request::Subscribe { tenant: "acme".into() },
        Request::PushAck { seq: 41 },
        Request::BindKey {
            slot: 7,
            tenant: "acme".into(),
            task: "t".into(),
            context: sample_context(),
        },
        Request::CheckKeyed {
            slot: 7,
            calls: vec![ApiCall::new("email", "send_email", vec!["alice".into()])],
        },
    ]
}

fn sample_responses() -> Vec<Response> {
    vec![
        Response::HelloOk { version: conseca_serve::PROTOCOL_VERSION },
        Response::Verdict { decision: None },
        Response::Installed { fingerprint: 1, entries: 2 },
        Response::PolicyOk { policy: Some(sample_policy()) },
        Response::Flushed { removed: 3 },
        Response::StatsOk {
            counters: TenantCounters {
                hits: 1,
                misses: 2,
                checks: 3,
                allowed: 2,
                denied: 1,
                reloads: 1,
                revoked: 1,
            },
            daemon: None,
            workers: 2,
        },
        Response::StatsOk {
            counters: TenantCounters::default(),
            daemon: Some(conseca_serve::DaemonCounters {
                sweeps: 1,
                swept_reloaded: 2,
                swept_orphaned: 3,
                snapshot_ticks: 4,
                segments_written: 5,
                snapshot_skips: 6,
                flush_markers: 7,
                journal_records: 8,
                journal_compactions: 9,
                recovered_installed: 10,
                recovered_skipped_revoked: 11,
                io_errors: 12,
            }),
            workers: 8,
        },
        Response::Revoked { removed: 2 },
        Response::Reloaded { old_fingerprint: Some(9), fingerprint: 8, entries: 2 },
        Response::Error { code: 3, message: "nope".into() },
        Response::Subscribed,
        Response::KeyBound { slot: 7 },
        Response::PushRevoke { seq: 1, tenant: "acme".into(), fingerprint: 0xfeed_f00d },
        Response::PushReload {
            seq: 2,
            tenant: "acme".into(),
            task_fp: 3,
            context_fp: 4,
            fingerprint: 5,
        },
        Response::PushFlush { seq: 6, tenant: "acme".into() },
    ]
}

/// `decode` must return (Ok or Err) — reaching the end of this function
/// is the property; a panic anywhere in the decoder fails the test.
fn decode_both(frame: &Frame) {
    let _ = Request::decode(frame);
    let _ = Response::decode(frame);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn arbitrary_frames_decode_to_error_not_panic(
        input in ((0u16..256).prop_map(|t| t as u8), vec(any::<u8>(), 0..96))
    ) {
        let (tag, payload) = input;
        decode_both(&Frame { tag, payload });
    }

    #[test]
    fn truncated_valid_frames_error_not_panic(input in (any::<u64>(), any::<u64>())) {
        let (pick, cut) = input;
        let requests = sample_requests();
        let frame = requests[(pick % requests.len() as u64) as usize].encode();
        if !frame.payload.is_empty() {
            // A strict prefix of a length-exact encoding can never decode.
            let cut = (cut % frame.payload.len() as u64) as usize;
            let truncated = Frame { tag: frame.tag, payload: frame.payload[..cut].to_vec() };
            prop_assert!(
                Request::decode(&truncated).is_err(),
                "tag 0x{:02x} cut at {} decoded",
                frame.tag,
                cut
            );
        }
        let responses = sample_responses();
        let frame = responses[(pick % responses.len() as u64) as usize].encode();
        if !frame.payload.is_empty() {
            let cut = (cut % frame.payload.len() as u64) as usize;
            let truncated = Frame { tag: frame.tag, payload: frame.payload[..cut].to_vec() };
            prop_assert!(Response::decode(&truncated).is_err());
        }
    }

    #[test]
    fn corrupted_tails_error_not_panic(
        input in (any::<u64>(), any::<u64>(), vec(any::<u8>(), 1..16))
    ) {
        let (pick, at, junk) = input;
        let requests = sample_requests();
        let valid = requests[(pick % requests.len() as u64) as usize].encode();
        // Valid prefix, corrupted interior byte: may decode to something
        // else or error — must not panic.
        if !valid.payload.is_empty() {
            let mut flipped = valid.clone();
            let at = (at % flipped.payload.len() as u64) as usize;
            flipped.payload[at] ^= 0xFF;
            decode_both(&flipped);
        }
        // Valid prefix, junk tail: every encoding is length-exact, so
        // trailing bytes must be rejected.
        let mut extended = valid;
        extended.payload.extend_from_slice(&junk);
        prop_assert!(Request::decode(&extended).is_err(), "junk tail accepted");
    }

    #[test]
    fn frame_reader_survives_arbitrary_streams(bytes in vec(any::<u8>(), 0..64)) {
        // Any byte stream, several caps (including one small enough that
        // most announced lengths are oversized): Ok/Err only, and the
        // reader must never allocate the announced length before
        // checking the cap.
        for cap in [8u32, 64, 1 << 20] {
            let _ = read_frame(&mut bytes.as_slice(), cap);
        }
    }

    #[test]
    fn truncated_byte_streams_surface_as_io_errors(
        input in (any::<u64>(), any::<u64>())
    ) {
        let (pick, cut) = input;
        let requests = sample_requests();
        let request = &requests[(pick % requests.len() as u64) as usize];
        let mut full = Vec::new();
        write_frame(&mut full, &request.encode(), DEFAULT_MAX_FRAME_LEN).unwrap();
        let cut = (cut % full.len() as u64) as usize;
        match read_frame(&mut &full[..cut], 1 << 20) {
            Ok(None) => prop_assert_eq!(cut, 0, "only an empty stream is a clean EOF"),
            Ok(Some(_)) => prop_assert!(false, "a truncated stream yielded a frame"),
            Err(_) => {}
        }
    }
}

/// A non-blocking `Read` over fixed bytes: hands them out in the given
/// chunk sizes, cycling, and answers `WouldBlock` for a zero chunk.
struct Chunked<'a> {
    bytes: &'a [u8],
    chunks: Vec<usize>,
    next: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let chunk = self.chunks[self.next % self.chunks.len()];
        self.next += 1;
        if chunk == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = chunk.min(out.len());
        self.bytes.read(&mut out[..n])
    }
}

/// One piece of a fuzzed stream: arbitrary bytes, or a whole frame.
fn stream_piece() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        vec(any::<u8>(), 0..24),
        (any::<u8>(), vec(any::<u8>(), 0..48)).prop_map(|(tag, payload)| {
            let mut framed = Vec::new();
            write_frame(&mut framed, &Frame { tag, payload }, u32::MAX).unwrap();
            framed
        }),
    ]
}

/// How a drive of the decoder stopped: a clean close, or the error
/// (I/O errors by kind).
fn ending(result: Result<Option<Frame>, FrameError>) -> String {
    match result {
        Ok(_) => "clean close".into(),
        Err(FrameError::Io(e)) => format!("io {:?}", e.kind()),
        Err(e) => e.to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// The frame decoder's blocking drive (`read_frame`, one frame at a
    /// time, on the unsplit bytes) and its non-blocking drive (one
    /// decoder kept across chunked reads and would-blocks) hand out the
    /// same frames and stop with the same error kind, under a cap that
    /// refuses most lengths, one that refuses some, and the default.
    #[test]
    fn both_drives_of_the_frame_decoder_agree_on_split_streams(
        input in (vec(stream_piece(), 0..6), vec(0usize..17, 1..8), 0usize..3)
    ) {
        let (pieces, mut chunks, cap) = input;
        let cap = [8, 64, DEFAULT_MAX_FRAME_LEN][cap];
        let bytes = pieces.concat();
        if chunks.iter().all(|&chunk| chunk == 0) {
            chunks.push(1);
        }

        let mut unsplit = bytes.as_slice();
        let mut expected = Vec::new();
        let expected_end = loop {
            match read_frame(&mut unsplit, cap) {
                Ok(Some(frame)) => expected.push(frame),
                other => break ending(other),
            }
        };

        let mut stream = Chunked { bytes: &bytes, chunks, next: 0 };
        let mut decoder = FrameDecoder::default();
        let mut got = Vec::new();
        let got_end = loop {
            match decoder.read_frame(&mut stream, cap) {
                Ok(Some(frame)) => got.push(frame),
                Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {}
                other => break ending(other),
            }
        };
        prop_assert_eq!(got, expected);
        prop_assert_eq!(got_end, expected_end);
    }
}

// ------------------------------------------------------ v5 push-frame fuzz
//
// The v5 subscription frames widen the trust boundary in a new
// direction: push frames arrive *unsolicited* and feed
// [`LocalPolicyCache::apply_push`], which is allowed to evict cached
// policies — so a forged or corrupted push must never panic the reader
// and, above all, must never cause a policy to *enter* the cache. The
// properties below hold both decoders to the no-panic bar on the new
// tags and prove the subtractive invariant directly: however malformed
// or well-formed the frame, `apply_push` on a fresh cache leaves it
// empty, and the epoch moves exactly when an ack is owed.

use conseca_serve::LocalPolicyCache;

// Mirrors the wire module's (crate-private) v5 tag constants:
// Subscribe, PushAck, Subscribed, PushRevoke, PushReload, PushFlush.
const V5_TAGS: [u8; 6] = [0x0D, 0x0E, 0x8D, 0x90, 0x91, 0x92];

/// The v5 sample frames: both new requests and all four new responses.
fn v5_frames() -> Vec<Frame> {
    vec![
        (Request::Subscribe { tenant: "acme".into() }).encode(),
        (Request::PushAck { seq: u64::MAX }).encode(),
        Response::Subscribed.encode(),
        (Response::PushRevoke { seq: 1, tenant: "acme".into(), fingerprint: 0xfeed_f00d }).encode(),
        (Response::PushReload {
            seq: 2,
            tenant: "acme".into(),
            task_fp: 3,
            context_fp: 4,
            fingerprint: 5,
        })
        .encode(),
        (Response::PushFlush { seq: 6, tenant: "acme".into() }).encode(),
    ]
}

/// Decodes `frame` as a response and, when it decodes, feeds it to a
/// fresh cache — which must stay empty: `apply_push` is subtractive,
/// so no frame whatsoever may install. The epoch must move exactly
/// when an ack is owed (push applied) and never otherwise.
fn assert_never_installs(frame: &Frame) {
    let cache = LocalPolicyCache::new("acme");
    let before = cache.epoch();
    if let Ok(response) = Response::decode(frame) {
        match cache.apply_push(&response) {
            Some(_) => assert_eq!(cache.epoch(), before + 1, "an applied push moves the epoch"),
            None => assert_eq!(cache.epoch(), before, "a non-push must not move the epoch"),
        }
    }
    assert_eq!(cache.policies(), 0, "a push frame installed a policy");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn arbitrary_v5_tagged_frames_never_panic_and_never_install(
        input in (0usize..6, vec(any::<u8>(), 0..96))
    ) {
        let (pick, payload) = input;
        let frame = Frame { tag: V5_TAGS[pick], payload };
        let _ = Request::decode(&frame);
        assert_never_installs(&frame);
    }

    #[test]
    fn truncated_v5_frames_error_not_panic(input in (any::<u64>(), any::<u64>())) {
        let (pick, cut) = input;
        let frames = v5_frames();
        let frame = &frames[(pick % frames.len() as u64) as usize];
        if !frame.payload.is_empty() {
            // A strict prefix of a length-exact encoding can never
            // decode — in either direction.
            let cut = (cut % frame.payload.len() as u64) as usize;
            let truncated = Frame { tag: frame.tag, payload: frame.payload[..cut].to_vec() };
            prop_assert!(Request::decode(&truncated).is_err());
            prop_assert!(Response::decode(&truncated).is_err());
            assert_never_installs(&truncated);
        }
    }

    #[test]
    fn bit_flipped_v5_frames_never_panic_and_never_install(
        input in (any::<u64>(), any::<u64>(), any::<u8>())
    ) {
        let (pick, at, mask) = input;
        let frames = v5_frames();
        let valid = &frames[(pick % frames.len() as u64) as usize];
        if !valid.payload.is_empty() {
            // A flipped interior byte may still decode (e.g. into a
            // push for a different tenant, seq, or fingerprint) — that
            // is exactly the forged-push case, and it must only ever
            // shrink the cache, never fill it.
            let mut flipped = valid.clone();
            let at = (at % flipped.payload.len() as u64) as usize;
            flipped.payload[at] ^= mask | 0x01; // always flips at least one bit
            let _ = Request::decode(&flipped);
            assert_never_installs(&flipped);
        }
    }

    #[test]
    fn junk_tailed_v5_frames_are_rejected(
        input in (any::<u64>(), vec(any::<u8>(), 1..16))
    ) {
        let (pick, junk) = input;
        let frames = v5_frames();
        let mut extended = frames[(pick % frames.len() as u64) as usize].clone();
        // Every encoding is length-exact, so trailing bytes must be
        // rejected by both decoders.
        extended.payload.extend_from_slice(&junk);
        prop_assert!(Request::decode(&extended).is_err(), "junk tail accepted as a request");
        prop_assert!(Response::decode(&extended).is_err(), "junk tail accepted as a response");
        assert_never_installs(&extended);
    }

    #[test]
    fn arbitrary_responses_never_install_into_the_cache(
        input in ((0u16..256).prop_map(|t| t as u8), vec(any::<u8>(), 0..96))
    ) {
        // The full tag space, not just the v5 tags: whatever a hostile
        // server streams at the reader, the cache only ever shrinks.
        let (tag, payload) = input;
        assert_never_installs(&Frame { tag, payload });
    }
}

// ------------------------------------------------- snapshot decoder fuzz
//
// The engine's on-disk policy snapshots share the wire codec, and their
// decoder (`conseca_engine::decode_snapshot` +
// `Engine::import_snapshot`) sits on the same trust boundary: any
// file handed to a warm start may be truncated, bit-flipped, version
// skewed, or outright junk. The properties below hold the same bar as
// the frame decoders — structured `SnapshotError`s, never panics, and
// *never* a partial load — plus the positive property that a clean
// export → import round-trip produces byte-identical compiled checks.

use conseca_engine::{decode_snapshot, Engine};
use conseca_serve::wire::encode_decision;

/// A small parameterised policy family so roundtrip cases vary in
/// entry count, constraint kind, and content.
fn snapshot_policy(task_seed: u64, entries: u64) -> Policy {
    let mut policy = Policy::new(&format!("snapshot task {task_seed}"));
    for i in 0..(entries % 5) + 1 {
        let name = format!("api_{i}");
        let entry = match (task_seed + i) % 4 {
            0 => PolicyEntry::allow(
                vec![ArgConstraint::regex(&format!("^user{i}$")).unwrap()],
                "regex scoped",
            ),
            1 => PolicyEntry::allow(
                vec![ArgConstraint::Dsl(Predicate::Prefix(format!("/srv/{i}/")))],
                "dsl scoped",
            ),
            2 => PolicyEntry::allow_any("open"),
            _ => PolicyEntry::deny("closed"),
        };
        policy.set(&name, entry);
    }
    policy
}

fn exported_bytes(task_seed: u64, entries: u64) -> Vec<u8> {
    let engine = Engine::default();
    let ctx = sample_context();
    let policy = snapshot_policy(task_seed, entries);
    engine.install("acme", &policy.task, &ctx, &policy).unwrap();
    engine.store().export_snapshot("acme").unwrap().bytes
}

fn assert_never_loads(bytes: &[u8]) {
    // Reaching past both calls without a panic is the property; on top
    // of that nothing may ever install partially.
    assert!(decode_snapshot(bytes).is_err(), "corrupted snapshot decoded");
    let fresh = Engine::default();
    assert!(fresh.import_snapshot("acme", bytes).is_err(), "corrupted snapshot imported");
    assert!(fresh.store().is_empty(), "a rejected snapshot installed something");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn truncated_snapshots_error_not_panic(input in (any::<u64>(), any::<u64>(), any::<u64>())) {
        let (seed, entries, cut) = input;
        let bytes = exported_bytes(seed, entries);
        // A strict prefix can never load: the trailing checksum is gone
        // or covers different bytes.
        let cut = (cut % bytes.len() as u64) as usize;
        assert_never_loads(&bytes[..cut]);
    }

    #[test]
    fn bit_flipped_snapshots_error_not_panic(
        input in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u8>())
    ) {
        let (seed, entries, at, mask) = input;
        let mut bytes = exported_bytes(seed, entries);
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= mask | 0x01; // always flips at least one bit
        // FNV-1a over two streams differing in exactly one byte can
        // never collide (xor-then-multiply-by-odd-prime is injective
        // per step), so *every* single-byte corruption must be caught —
        // by the checksum, or earlier by the magic/version gates.
        assert_never_loads(&bytes);
    }

    #[test]
    fn version_skewed_snapshots_error_not_panic(
        input in (any::<u64>(), any::<u64>(), any::<u16>(), any::<bool>())
    ) {
        let (seed, entries, version, skew_codec) = input;
        let mut bytes = exported_bytes(seed, entries);
        // Rewrite a version field and reseal the checksum, so the skew
        // check itself is what must reject the file.
        let offset = if skew_codec { 10 } else { 8 };
        bytes[offset..offset + 2].copy_from_slice(&version.to_be_bytes());
        let body_len = bytes.len() - 8;
        let checksum = conseca_core::fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_be_bytes());
        if version == 1 {
            prop_assert!(decode_snapshot(&bytes).is_ok(), "version 1 is the current version");
        } else {
            assert_never_loads(&bytes);
        }
    }

    #[test]
    fn arbitrary_bytes_never_load_as_snapshots(bytes in vec(any::<u8>(), 0..256)) {
        // Junk of any length: error, never panic, never install. (A
        // random 28+-byte buffer opening with the 8-byte magic AND
        // carrying a valid trailing FNV checksum is out of reach for a
        // generator, so asserting is_err is sound.)
        assert_never_loads(&bytes);
    }

    #[test]
    fn export_import_roundtrips_byte_identical_compiled_checks(
        input in (any::<u64>(), any::<u64>())
    ) {
        let (seed, entries) = input;
        let ctx = sample_context();
        let policy = snapshot_policy(seed, entries);
        let source = Engine::default();
        source.install("acme", &policy.task, &ctx, &policy).unwrap();
        let exported = source.store().export_snapshot("acme").unwrap();

        let warmed = Engine::default();
        let report = warmed
            .import_snapshot("acme", &exported.bytes)
            .expect("clean snapshots import");
        prop_assert_eq!(report.installed, 1);

        // Every probe decides byte-identically against the restored
        // (re-compiled) policy and a fresh compile of the source.
        let probes = [
            ApiCall::new("t", "api_0", vec!["user0".into()]),
            ApiCall::new("t", "api_1", vec!["/srv/1/x".into()]),
            ApiCall::new("t", "api_2", vec![]),
            ApiCall::new("t", "api_3", vec!["anything".into()]),
            ApiCall::new("t", "unlisted", vec!["x".into()]),
        ];
        for probe in &probes {
            let warm = warmed.check("acme", &policy.task, &ctx, probe).expect("restored");
            let cold = source.check("acme", &policy.task, &ctx, probe).expect("installed");
            prop_assert_eq!(encode_decision(&warm), encode_decision(&cold));
        }
    }
}

// --------------------------------------- persistence decoder fuzz (v6)
//
// The lifecycle daemon adds two more on-disk trust boundaries: the
// revocation journal (`decode_journal`) and the per-tenant snapshot log
// (`decode_snapshot_log`), two kinds of one record file that the engine
// implements once. Both replay at boot, before the server accepts a
// single restore, so they get the same bar as the snapshot decoder —
// structured errors, never panics, and every single-byte corruption of
// a *complete* record caught. The encoders below are written against
// the documented byte layouts in `docs/persistence.md` (§12 for the
// shared framing, §9 and §10 for the bodies), not the crate's own
// writers, so these properties double as format pins: if the layout
// drifts, the roundtrip property fails.

use conseca_engine::{
    decode_journal, decode_snapshot_log, JournalError, JournalOp, SnapshotLogError, JOURNAL_MAGIC,
    JOURNAL_VERSION, SNAPSHOT_LOG_MAGIC, SNAPSHOT_LOG_VERSION,
};

/// Frames one journal record / log segment body per the shared layout:
/// `len u32 | body | fnv1a(len_be ++ body) u64`.
fn seal_record(out: &mut Vec<u8>, body: &[u8]) {
    let len = (body.len() as u32).to_be_bytes();
    let mut covered = Vec::with_capacity(4 + body.len());
    covered.extend_from_slice(&len);
    covered.extend_from_slice(body);
    out.extend_from_slice(&len);
    out.extend_from_slice(body);
    out.extend_from_slice(&conseca_core::fnv1a(&covered).to_be_bytes());
}

/// A valid journal: header plus `count` alternating revoke/reinstate
/// records for seeded tenants and fingerprints.
fn journal_bytes(seed: u64, count: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&JOURNAL_MAGIC);
    bytes.extend_from_slice(&JOURNAL_VERSION.to_be_bytes());
    for i in 0..(count % 6) + 1 {
        let tenant = format!("tenant-{}", (seed + i) % 3);
        let mut body = Vec::new();
        body.push(if (seed + i).is_multiple_of(3) { 2 } else { 1 }); // kind
        body.extend_from_slice(&(tenant.len() as u32).to_be_bytes());
        body.extend_from_slice(tenant.as_bytes());
        body.extend_from_slice(&(seed ^ (i << 7)).to_be_bytes());
        seal_record(&mut bytes, &body);
    }
    bytes
}

/// A valid snapshot log: header plus a full segment (wrapping a real
/// exported snapshot blob), a flush marker, and a delta segment.
fn snapshot_log_bytes(seed: u64, entries: u64) -> Vec<u8> {
    let blob = exported_bytes(seed, entries);
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&SNAPSHOT_LOG_MAGIC);
    bytes.extend_from_slice(&SNAPSHOT_LOG_VERSION.to_be_bytes());
    let mut full = vec![1u8];
    full.extend_from_slice(&blob);
    seal_record(&mut bytes, &full);
    seal_record(&mut bytes, &[3u8]); // flush marker
    let mut delta = vec![2u8];
    delta.extend_from_slice(&blob);
    seal_record(&mut bytes, &delta);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn journal_roundtrips_against_the_documented_layout(
        input in (any::<u64>(), any::<u64>())
    ) {
        let (seed, count) = input;
        let bytes = journal_bytes(seed, count);
        let records = decode_journal(&bytes).expect("hand-framed journal decodes");
        prop_assert_eq!(records.len() as u64, (count % 6) + 1);
        for (i, record) in records.iter().enumerate() {
            let i = i as u64;
            let expected = if (seed + i).is_multiple_of(3) { JournalOp::Reinstate } else { JournalOp::Revoke };
            prop_assert_eq!(record.op, expected);
            prop_assert_eq!(&record.tenant, &format!("tenant-{}", (seed + i) % 3));
            prop_assert_eq!(record.fingerprint, seed ^ (i << 7));
        }
    }

    #[test]
    fn corrupted_journals_error_not_panic(
        input in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u8>())
    ) {
        let (seed, count, at, mask) = input;
        let truncate = at & 1 == 0;
        let at = at >> 1;
        let clean = journal_bytes(seed, count);
        if truncate {
            // A cut on a record boundary is a shorter valid journal (a
            // crash between appends); a cut inside a record is
            // Truncated. Either way: no panic, and never records the
            // full journal did not have.
            let cut = (at % clean.len() as u64) as usize;
            let full = decode_journal(&clean).expect("clean journal decodes");
            match decode_journal(&clean[..cut]) {
                Err(_) => {}
                Ok(prefix) => prop_assert_eq!(&prefix[..], &full[..prefix.len()]),
            }
        } else {
            let mut bytes = clean;
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] ^= mask | 0x01;
            // Every single-byte flip lands in the magic, the version, or
            // a checksummed record — all refused.
            match decode_journal(&bytes) {
                Err(_) => {}
                Ok(_) => prop_assert!(false, "single-byte corruption decoded at {at}"),
            }
        }
    }

    #[test]
    fn journal_version_skew_is_refused_by_the_version_gate(version in any::<u16>()) {
        let mut bytes = journal_bytes(7, 3);
        bytes[8..10].copy_from_slice(&version.to_be_bytes());
        if version == JOURNAL_VERSION {
            prop_assert!(decode_journal(&bytes).is_ok());
        } else {
            prop_assert!(matches!(
                decode_journal(&bytes),
                Err(JournalError::FormatSkew { found, expected })
                    if found == version && expected == JOURNAL_VERSION
            ));
        }
    }

    #[test]
    fn arbitrary_bytes_never_decode_as_a_journal(bytes in vec(any::<u8>(), 0..256)) {
        prop_assert!(decode_journal(&bytes).is_err());
    }

    #[test]
    fn corrupted_snapshot_logs_error_not_panic(
        input in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u8>())
    ) {
        let (seed, entries, at, mask) = input;
        let truncate = at & 1 == 0;
        let at = at >> 1;
        let clean = snapshot_log_bytes(seed, entries);
        prop_assert_eq!(
            decode_snapshot_log(&clean).expect("hand-framed log decodes").len(),
            3,
            "full + flush + delta"
        );
        if truncate {
            // Same boundary rule as the journal: a cut between segments
            // is a shorter valid log, a cut inside one is Truncated.
            let cut = (at % clean.len() as u64) as usize;
            match decode_snapshot_log(&clean[..cut]) {
                Err(_) => {}
                Ok(prefix) => prop_assert!(prefix.len() < 3),
            }
        } else {
            let mut bytes = clean;
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] ^= mask | 0x01;
            // A flip inside a nested snapshot blob is caught by the
            // *segment* checksum here; `BadSnapshot` exists for resealed
            // segments, exercised below.
            prop_assert!(decode_snapshot_log(&bytes).is_err());
        }
    }

    #[test]
    fn resealed_segments_cannot_smuggle_tampered_snapshots(
        input in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u8>())
    ) {
        // The adversarial case: flip a byte inside the nested snapshot
        // blob, then RE-SEAL the outer segment checksum. The outer
        // framing is now self-consistent, so only the nested snapshot
        // trust boundary (magic, version, whole-blob checksum) can catch
        // it — and must.
        let (seed, entries, at, mask) = input;
        let blob = exported_bytes(seed, entries);
        let at = (at % blob.len() as u64) as usize;
        let mut tampered = blob;
        tampered[at] ^= mask | 0x01;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_LOG_MAGIC);
        bytes.extend_from_slice(&SNAPSHOT_LOG_VERSION.to_be_bytes());
        let mut body = vec![1u8];
        body.extend_from_slice(&tampered);
        seal_record(&mut bytes, &body);
        prop_assert!(matches!(
            decode_snapshot_log(&bytes),
            Err(SnapshotLogError::BadSnapshot { .. })
        ));
    }

    #[test]
    fn arbitrary_bytes_never_decode_as_a_snapshot_log(bytes in vec(any::<u8>(), 0..256)) {
        prop_assert!(decode_snapshot_log(&bytes).is_err());
    }
}

// Coverage floor: 22 properties × 3000 cases each = 66k generated cases
// per run — 15k through the frame decoders, 15k through the v5
// push-frame surface (decoders plus `LocalPolicyCache::apply_push`),
// 15k through the snapshot decoder, and 21k through the v6 persistence
// decoders (journal + snapshot log), each comfortably above its
// 10k/15k-case floor. Adjust the per-property `ProptestConfig` if
// properties are added or removed.
