//! Golden artifact pin: the encoded bytes of every corpus protection under
//! the three served configurations, hashed and compared with constants
//! recorded once.
//!
//! The bit-identity suites compare two runs of the same build, so a change
//! to gadget selection, chain crafting or materialization that drifts the
//! output consistently would pass them. This suite compares against a
//! fixed record instead: any change to an artifact byte fails here. A
//! change that is *meant* to alter artifacts must re-record the table
//! (run with `GOLDEN_PRINT=1` to print it) and say so.

use raindrop::pipeline::ObfConfig;
use raindrop::stable::stable_hash_bytes;
use raindrop::RopConfig;
use raindrop_obfvm::VmConfig;
use raindrop_server::encode_image;

/// The corpus seed of `classes::generate_all`.
const CORPUS_SEED: u64 = 1;
/// Protection seeds pinned per (program, configuration).
const SEEDS: [u64; 2] = [0, 1];

/// ROP1.00, 1VM and ROP1.00-over-1VM, as the protection server is asked
/// for them.
fn configs() -> [ObfConfig; 3] {
    [
        ObfConfig::new().rop(RopConfig::ropk(1.0)),
        ObfConfig::new().vm(VmConfig::plain(1)),
        ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(1.0)),
    ]
}

/// `<program>/<configuration>/<seed>` → `stable_hash_bytes(encode_image(..))`.
const GOLDEN: &[(&str, u128)] = &[
    ("stress-s0-0/ROP1.00/0", 0x0b269848132840b0cb43499956acfcfc),
    ("stress-s0-0/ROP1.00/1", 0xe0338c10dfb6a3bc50d03f6fdb168e24),
    ("stress-s0-0/1VM/0", 0x833708f434f2cb899eee26141aa002ef),
    ("stress-s0-0/1VM/1", 0xd5c6e6059406dc9e84291f242e476bd2),
    ("stress-s0-0/ROP1.00-over-1VM/0", 0x769620cd9d83c71a634ea87a0aa5cb30),
    ("stress-s0-0/ROP1.00-over-1VM/1", 0x2ed7a9bec9e3f0abc88db76abf530122),
    ("stress-s1-1/ROP1.00/0", 0x936aca13353074740e7ecbd1e579dc35),
    ("stress-s1-1/ROP1.00/1", 0xed9cd082ace34b348d8a6ab7916a65ca),
    ("stress-s1-1/1VM/0", 0xd9d96d64792e876c0be592e0699a56d3),
    ("stress-s1-1/1VM/1", 0x62347be659d3931df0338346705d2743),
    ("stress-s1-1/ROP1.00-over-1VM/0", 0x1cc37f749f211d1eafae9381c875c0f4),
    ("stress-s1-1/ROP1.00-over-1VM/1", 0x11cb6c953c8860312af54d94d3d5bd69),
    ("app-crc/ROP1.00/0", 0x781ddad3181b6bca295ad3ac17875629),
    ("app-crc/ROP1.00/1", 0x411bfcaa07ce6a24b131e15607f94af2),
    ("app-crc/1VM/0", 0x83f9e4e236f0f5a13eedd1b14a4593cc),
    ("app-crc/1VM/1", 0x4e697060b94b70541bd027f1890b54ed),
    ("app-crc/ROP1.00-over-1VM/0", 0x84f676a373175bb6e5c1327ff471bad6),
    ("app-crc/ROP1.00-over-1VM/1", 0xec50f01ffbd84d3d9b8fa6c9975256d4),
    ("app-parser/ROP1.00/0", 0xfc15f20981358e9a8e413e8861765cbc),
    ("app-parser/ROP1.00/1", 0xa34e3f70face5484e3e329b073cc30bd),
    ("app-parser/1VM/0", 0x53c65e05d46d9940022c358b68f0aeab),
    ("app-parser/1VM/1", 0x8fba7c12372aef92e9d75e0db3ec5193),
    ("app-parser/ROP1.00-over-1VM/0", 0xcd8e3f4c180e736681407a46720ae44a),
    ("app-parser/ROP1.00-over-1VM/1", 0x48d31a7af611d1248d1e7af780ac1931),
    ("app-dfa/ROP1.00/0", 0xec39e0218c8fe96940644a7a680ef6cf),
    ("app-dfa/ROP1.00/1", 0xcffaa114b04f6ac8c8c7d723c35da452),
    ("app-dfa/1VM/0", 0x6e9574deadc34eaeadd461d7b5fa29ab),
    ("app-dfa/1VM/1", 0x751776d5ea4f0455b5055ae5a70e1a58),
    ("app-dfa/ROP1.00-over-1VM/0", 0x418a8fbdd171098207b178c870a85fa3),
    ("app-dfa/ROP1.00-over-1VM/1", 0xd47f68e3baf948eda1755dc77a7c9f89),
    ("db-hash/ROP1.00/0", 0x4dda53f44208227ffc3e2e5640810655),
    ("db-hash/ROP1.00/1", 0xc1aa9e62b8f9807c0c92eef353ce339c),
    ("db-hash/1VM/0", 0xfc902ddc74bd6bbf6b61e78b1ff986f8),
    ("db-hash/1VM/1", 0x29302b8f90e6a63be47038816feaa1c0),
    ("db-hash/ROP1.00-over-1VM/0", 0xa7bc8032260f356dbfafb607afbe7bb6),
    ("db-hash/ROP1.00-over-1VM/1", 0xb5ac78b91b2929768f7374a90b88ba45),
    ("db-btree/ROP1.00/0", 0x419e1dfe30f8da80f8b3623b39460d86),
    ("db-btree/ROP1.00/1", 0xf08a2643462714bd3727a742366f7783),
    ("db-btree/1VM/0", 0xf3dd8a2e5b9f5b9e7ef310f9e931acc2),
    ("db-btree/1VM/1", 0x1bda661224a2d5c0be0302fec4a46da5),
    ("db-btree/ROP1.00-over-1VM/0", 0xecab18ca8171817a8ed5a914a88bbd2e),
    ("db-btree/ROP1.00-over-1VM/1", 0xa53060e2257cfa7f48784802e9d8b3b2),
    ("smc-cadence1/ROP1.00/0", 0x4261732ca78c1c2e8a4b8b21778caf49),
    ("smc-cadence1/ROP1.00/1", 0x3537c3dc9fc295870fcd87cfb5e3e9ac),
    ("smc-cadence1/1VM/0", 0x6cf6b56e9c39e874bb2f2b732968dadc),
    ("smc-cadence1/1VM/1", 0x632be1c9b877814e6ef98ae0f1b8d37e),
    ("smc-cadence1/ROP1.00-over-1VM/0", 0x39076320d4313bd237ff82471b9e09d5),
    ("smc-cadence1/ROP1.00-over-1VM/1", 0x8380890f7f6a8ca6fb9101cdbec8256c),
    ("smc-cadence2/ROP1.00/0", 0x979deb8185c63e0384c72ffca6e29a5b),
    ("smc-cadence2/ROP1.00/1", 0x233515a81fadfa25b5620976191ff671),
    ("smc-cadence2/1VM/0", 0x5264297e9021edbb318924037d4e804c),
    ("smc-cadence2/1VM/1", 0xe30d9ed7c5f6ee3280685c0982dc2993),
    ("smc-cadence2/ROP1.00-over-1VM/0", 0xf1edfa3dd85f5a60807f280cbc5c3b41),
    ("smc-cadence2/ROP1.00-over-1VM/1", 0x079d0c39e22eb72258677de255a2975d),
    ("depth-recursion/ROP1.00/0", 0x817441f1e75f0c0829e1b5d716ba4ab7),
    ("depth-recursion/ROP1.00/1", 0x500826191fa80a8c688bb3405cb16de4),
    ("depth-recursion/1VM/0", 0xc91ce4e796b142e3b57395d9dacb7039),
    ("depth-recursion/1VM/1", 0xab82ee424a0e6738a4c8d0926018c16a),
    ("depth-recursion/ROP1.00-over-1VM/0", 0xaea79a64d91aa7e79098f20749b3fdcb),
    ("depth-recursion/ROP1.00-over-1VM/1", 0xd744e718e9df9efe3689702c2b3339f8),
    ("depth-switch/ROP1.00/0", 0xee355aa9a97a77fb131de11424560465),
    ("depth-switch/ROP1.00/1", 0x56599539a1e3e43c17e93b85145a860e),
    ("depth-switch/1VM/0", 0x5c67fc12fd07ed2cc6b8fd5581e024b3),
    ("depth-switch/1VM/1", 0x9268c832b434a39909dea2c7820f3965),
    ("depth-switch/ROP1.00-over-1VM/0", 0x0682d0d2fd4b35eb5228ec587bd4ef68),
    ("depth-switch/ROP1.00-over-1VM/1", 0x9fc72c17984bb9b632941de4a2f8e4b0),
];

#[test]
fn corpus_artifacts_match_the_recorded_hashes() {
    let mut actual = Vec::new();
    for cp in raindrop_synth::classes::generate_all(CORPUS_SEED) {
        let w = &cp.workload;
        for config in configs() {
            for seed in SEEDS {
                let label = format!("{}/{}/{seed}", w.name, config.label());
                let (image, _) = config
                    .pipeline(seed)
                    .run_program(&w.program, &w.obfuscate)
                    .and_then(|run| run.into_strict())
                    .unwrap_or_else(|e| panic!("{label}: protection failed: {e}"));
                actual.push((label, stable_hash_bytes(&encode_image(&image))));
            }
        }
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
        "artifacts differ from the recorded hashes:\n{}",
        drifted.join("\n")
    );
    assert_eq!(actual.len(), GOLDEN.len(), "every recorded artifact is still produced");
}
