//! Model-based test of the one revocation invariant: a fingerprint is
//! live iff the last event for it was an install or a reload.
//!
//! Random op sequences over three fixed policies (install, reload,
//! revoke, flush, snapshot, warm start, snapshot tick, crash + recover,
//! check) run through all five execution paths durably. Every path must
//! agree byte for byte, and every warm-start and crash-recovery outcome
//! must match a reference model that knows nothing but the invariant
//! above. Seeded, so a failure names its case and prints its script.

use std::collections::HashMap;

use conseca_core::{ArgConstraint, Policy, PolicyEntry, TrustedContext};
use conseca_shell::ApiCall;
use conseca_workloads::{assert_conformant, run_script_everywhere_durable, PolicyOp};

/// Sequences per run: about 20 s for the debug build on 2 vCPUs.
const CASES: u64 = 1500;
const MAX_OPS: u64 = 24;
const SEED: u64 = 0x005E_ED0F_4EC0;

fn policies() -> [Policy; 3] {
    ["alice", "bob", "carol"].map(|recipient| {
        let mut p = Policy::new("respond to urgent work emails");
        let to = ArgConstraint::regex(&format!("^{recipient}$")).unwrap();
        p.set("send_email", PolicyEntry::allow(vec![to], &format!("mail goes to {recipient}")));
        p
    })
}

/// splitmix64: a tiny deterministic generator, enough to pick ops.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

fn script(rng: &mut Rng, policies: &[Policy; 3]) -> Vec<PolicyOp> {
    let pick = |rng: &mut Rng| policies[rng.below(3) as usize].clone();
    (0..1 + rng.below(MAX_OPS))
        .map(|_| match rng.below(15) {
            0 | 1 => PolicyOp::Install(pick(rng)),
            2 => PolicyOp::Reload(pick(rng)),
            3 | 4 => PolicyOp::Revoke(pick(rng).fingerprint()),
            5 => PolicyOp::Flush,
            6 | 7 => PolicyOp::Snapshot,
            8 | 9 => PolicyOp::WarmStart,
            10 | 11 => PolicyOp::SnapshotTick,
            12 | 13 => PolicyOp::CrashRecover,
            _ => PolicyOp::Check(ApiCall::new("email", "send_email", vec!["alice".into()])),
        })
        .collect()
}

/// The reference: one store key, a snapshot slot, a durable slot, and
/// the last event per fingerprint. Returns the expected (installed,
/// skipped_revoked, skipped_live) of every WarmStart and CrashRecover.
fn model(ops: &[PolicyOp]) -> Vec<(usize, [u64; 3])> {
    let mut live: Option<u64> = None;
    let mut snapshot: Option<Option<u64>> = None;
    let mut durable: Option<u64> = None;
    let mut last_was_install: HashMap<u64, bool> = HashMap::new();
    let mut outcomes = Vec::new();
    for (index, op) in ops.iter().enumerate() {
        let restore = |entry: Option<u64>, live: &mut Option<u64>| match entry {
            None => [0, 0, 0],
            Some(fp) if last_was_install.get(&fp) == Some(&false) => [0, 1, 0],
            Some(_) if live.is_some() => [0, 0, 1],
            Some(fp) => {
                *live = Some(fp);
                [1, 0, 0]
            }
        };
        match op {
            PolicyOp::Install(p) | PolicyOp::Reload(p) => {
                live = Some(p.fingerprint());
                last_was_install.insert(p.fingerprint(), true);
            }
            PolicyOp::Revoke(fp) => {
                last_was_install.insert(*fp, false);
                live = live.filter(|l| l != fp);
            }
            PolicyOp::Flush => (live, durable) = (None, None),
            PolicyOp::Snapshot => snapshot = Some(live),
            PolicyOp::WarmStart => {
                outcomes.push((index, restore(snapshot.flatten(), &mut live)));
            }
            PolicyOp::SnapshotTick => durable = live,
            PolicyOp::CrashRecover => {
                live = None;
                outcomes.push((index, restore(durable, &mut live)));
            }
            PolicyOp::Check(_) | PolicyOp::CheckBatch(_) => {}
        }
    }
    outcomes
}

fn encode(counts: [u64; 3]) -> Vec<u8> {
    counts.iter().flat_map(|n| n.to_be_bytes()).collect()
}

struct Cleanup(std::path::PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn random_lifecycles_match_the_revocation_model_on_every_path() {
    let policies = policies();
    let context = TrustedContext::for_user("alice");
    let mut rng = Rng(SEED);
    for case in 0..CASES {
        let ops = script(&mut rng, &policies);
        let root = std::env::temp_dir()
            .join(format!("conseca-revocation-model-{}-{case}", std::process::id()));
        let _cleanup = Cleanup(root.clone());
        let transcripts = run_script_everywhere_durable("acme", "respond", &context, &ops, &root);
        if std::panic::catch_unwind(|| assert_conformant(&transcripts)).is_err() {
            panic!("case {case}: the paths diverged (see above); script: {ops:?}");
        }
        for (index, expected) in model(&ops) {
            assert_eq!(
                transcripts[0].outcomes[index],
                encode(expected),
                "case {case}, op #{index} ({:?}) disagrees with the model; script: {ops:?}",
                ops[index]
            );
        }
    }
}
