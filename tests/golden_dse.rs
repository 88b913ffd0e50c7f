//! Golden DSE pin: the exploration schedule and verdict of every
//! `dse_speed_suite` job, hashed and compared with constants recorded
//! once.
//!
//! The fork-equivalence and resume suites compare two runs of the same
//! build, so a change to the solver or the shadow executor that drifts the
//! search consistently would pass them. This suite compares against a
//! fixed record instead: any change to an explored or pushed input, a
//! witness, a path, instruction or solver-call count, or the exhausted
//! budget dimension fails here. The suite covers the exhaustive (in1:
//! one-byte input) and the random (in4: four-byte input) solver
//! strategies. A change that is *meant* to alter the search must re-record
//! the table (run with `GOLDEN_PRINT=1` to print it) and say so.

use raindrop::stable::stable_hash_bytes;
use raindrop_attacks::{DseAttack, DseAudit, DseOutcome};
use raindrop_bench::{dse_speed_budget, dse_speed_suite};
use std::time::Duration;

/// `<job label>` → `stable_hash_bytes` of the job's audit and verdict.
const GOLDEN: &[(&str, u128)] = &[
    ("s0/in1/secret/native", 0x9e09c184a69b305901652cfaf8801fd5),
    ("s0/in1/secret/rop0.25", 0x092736f414d1c77d49d9e33c18a1bac2),
    ("s0/in1/secret/rop1.00", 0x529812ae531a2d296c36a8fb05a22f24),
    ("s0/in1/coverage/native", 0x1d873e23d820e404ea3d28ce34e37f34),
    ("s0/in1/coverage/rop0.25", 0x0936cb5c694ef1507dc694b9c25df661),
    ("s0/in1/coverage/rop1.00", 0xe3520e1fb5b5900368efd1b0f616421a),
    ("s0/in4/secret/native", 0xfe28b8dfe1c97afbb69896a20df9f9e1),
    ("s0/in4/secret/rop0.25", 0xba54369e43ef9f72f4cdf6bd84769a4d),
    ("s0/in4/secret/rop1.00", 0x5b5e9a87035dd3e5df6d12a39313bf7f),
    ("s0/in4/coverage/native", 0x3e7d28ba7cd0eb1eda4b279974a04a4a),
    ("s0/in4/coverage/rop0.25", 0x26529e8ae7218676c2417fe1310ac303),
    ("s0/in4/coverage/rop1.00", 0x84ae4d974330acd1a370c88b34885840),
    ("s1/in1/secret/native", 0xcdd6238d741bd31feb3940531b655149),
    ("s1/in1/secret/rop0.25", 0x2eeceb8d9ec90be7b31c45a49a9a4e83),
    ("s1/in1/secret/rop1.00", 0x6d10366e2f3c83299553fe4dc811bb54),
    ("s1/in1/coverage/native", 0x71f0a14a7632b6b98a2c64730ed410b0),
    ("s1/in1/coverage/rop0.25", 0x14ccfdcd4037fd17f8ec10b2a44609b4),
    ("s1/in1/coverage/rop1.00", 0x2a949c5be7b13988bdd1db0f87d5efee),
    ("s1/in4/secret/native", 0xb3e0571f7c2ee522043ec7b92c123535),
    ("s1/in4/secret/rop0.25", 0x17a3f40e9618e221716d6d7a1a85ebc8),
    ("s1/in4/secret/rop1.00", 0x4274e6dc25592cd28b74db750d688a73),
    ("s1/in4/coverage/native", 0xea13c593debf186a3a5bebf49aafb8ce),
    ("s1/in4/coverage/rop0.25", 0xf4b28b9d83124cbf8b82fc4a86f65f62),
    ("s1/in4/coverage/rop1.00", 0xe69b3f2366ee774a42f4b2909daa0bd8),
    ("s3/in1/secret/native", 0x07e5b8a538acddc8c2053151c06e393c),
    ("s3/in1/secret/rop0.25", 0x85aa48966cff5d4886fabeb551e7bf26),
    ("s3/in1/secret/rop1.00", 0xab88161008e0162c11414be87b179ef7),
    ("s3/in1/coverage/native", 0x1b4ec4510c4ea5112cb6e194ee50ca79),
    ("s3/in1/coverage/rop0.25", 0x586ecf5aa08ee6d415d1a0ec2ac8c7cc),
    ("s3/in1/coverage/rop1.00", 0x662614214525495bec027a6e6435a50c),
    ("s3/in4/secret/native", 0xaea677fa91fe35a7e90d582166435c28),
    ("s3/in4/secret/rop0.25", 0x5ffb24970d935b4183a0759c644fc15d),
    ("s3/in4/secret/rop1.00", 0x763902b446525a3e13ea7aa82a01531c),
    ("s3/in4/coverage/native", 0xe0f32746f1fdd18dcdb0ed3f00a27fa3),
    ("s3/in4/coverage/rop0.25", 0xa242244fd397db4ab5eb17169bec6ac2),
    ("s3/in4/coverage/rop1.00", 0xe659884f91d6742666f8cf214feb3126),
];

fn put_inputs(out: &mut Vec<u8>, inputs: &[Vec<u64>]) {
    out.extend_from_slice(&(inputs.len() as u64).to_le_bytes());
    for input in inputs {
        out.extend_from_slice(&(input.len() as u64).to_le_bytes());
        for v in input {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// The canonical bytes of everything a job's search decided: the audit
/// (explored and pushed inputs, in order) plus the verdict-bearing outcome
/// fields. Wall time and the explore-mode-dependent counters are left out.
fn job_bytes(out: &DseOutcome, audit: &DseAudit) -> Vec<u8> {
    let mut bytes = Vec::new();
    put_inputs(&mut bytes, &audit.explored);
    put_inputs(&mut bytes, &audit.pushed);
    bytes.push(out.success as u8);
    put_inputs(&mut bytes, out.witness.as_slice());
    bytes.extend_from_slice(&(out.paths as u64).to_le_bytes());
    bytes.extend_from_slice(&out.instructions.to_le_bytes());
    bytes.extend_from_slice(&out.solver_calls.to_le_bytes());
    let exhausted = out.exhausted.map(|e| e.to_string()).unwrap_or_default();
    bytes.extend_from_slice(exhausted.as_bytes());
    bytes
}

#[test]
fn dse_suite_schedules_match_the_recorded_hashes() {
    // A wall limit no job reaches: every job must end on work, so the
    // schedule is a pure function of the code.
    let budget = dse_speed_budget(false);
    let budget = raindrop_attacks::DseBudget { max_wall: Duration::from_secs(600), ..budget };
    let mut actual = Vec::new();
    for job in dse_speed_suite(false) {
        let mut attack = DseAttack::new(&job.image, &job.func, job.spec.clone(), budget);
        let (out, audit) = attack.run_audited(job.goal);
        assert_ne!(
            out.exhausted,
            Some(raindrop_attacks::DseExhaustion::Wall),
            "{}: ended on wall time",
            job.label
        );
        actual.push((job.label, stable_hash_bytes(&job_bytes(&out, &audit))));
    }
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for (label, hash) in &actual {
            println!("    (\"{label}\", 0x{hash:032x}),");
        }
    }
    let drifted: Vec<String> = actual
        .iter()
        .filter(|(label, hash)| !GOLDEN.iter().any(|(l, h)| l == label && h == hash))
        .map(|(label, hash)| format!("{label} = 0x{hash:032x}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "DSE schedules differ from the recorded hashes:\n{}",
        drifted.join("\n")
    );
    assert_eq!(actual.len(), GOLDEN.len(), "every recorded job is still run");
}
