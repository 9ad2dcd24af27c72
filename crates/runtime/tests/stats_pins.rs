//! Emp's statistics and the Figure-1 estimate after every commit.
//!
//! Three hundred single-row commits of an insert/update/delete cycle
//! run against `emp_dept(5 000, 500)` (seed 1) through a
//! [`QueryService`] in each storage mode. After every commit the test
//! records the FNV-1a digest of `format!("{:?}", emp.stats())` and the
//! bits of the Figure-1 query's `estimated_cost`. Both modes must agree
//! step by step, and both must match the pinned columns below: a
//! commit's statistics are exactly what re-analyzing its rows gives,
//! however the install computes them.
//!
//! A mismatch prints the first diverging commit and the regenerated
//! tables to paste — but a drift here means every cost the optimizer
//! prices after a write moved, so it is a finding, not a pin to
//! refresh.

use fj_bench::workloads::{emp_dept, paper_query, EmpDeptConfig};
use fj_runtime::{QueryService, ServiceConfig, StorageMode};
use fj_storage::{splitmix64, Mutation, Value};
use fj_store::TempDir;

const EMPS: usize = 5_000;
const DEPTS: usize = 500;
const SEED: u64 = 1;
const COMMITS: u64 = 300;

/// The `i`-th commit: an insert of a fresh employee, an update of a
/// random employee's salary, then a delete of the row the insert added,
/// so `Emp` stays within one row of its generated size.
fn mutation(i: u64) -> Mutation {
    let draw = |k: u64| splitmix64(SEED ^ (i << 8) ^ k);
    let unit = |k: u64| (draw(k) >> 11) as f64 / (1u64 << 53) as f64;
    let fresh = EMPS as i64 + (i / 3) as i64;
    let table = "Emp".to_string();
    match i % 3 {
        0 => Mutation::Insert {
            table,
            rows: vec![vec![
                Value::Int(fresh),
                Value::Int((draw(1) % DEPTS as u64) as i64),
                Value::Double(1_000.0 + 9_000.0 * unit(2)),
                Value::Int(21 + (draw(3) % 44) as i64),
            ]],
        },
        1 => Mutation::Update {
            table,
            set: vec![("sal".into(), Value::Double(1_000.0 + 9_000.0 * unit(4)))],
            where_col: "eid".into(),
            where_value: Value::Int((draw(5) % EMPS as u64) as i64),
        },
        _ => Mutation::Delete {
            table,
            where_col: "eid".into(),
            where_value: Value::Int(fresh),
        },
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(stats digest, estimated-cost bits)` after each commit.
fn run(storage: StorageMode) -> Vec<(u64, u64)> {
    let catalog = emp_dept(EmpDeptConfig {
        n_emps: EMPS,
        n_depts: DEPTS,
        seed: SEED,
        ..EmpDeptConfig::default()
    });
    let service = QueryService::try_start(
        catalog,
        ServiceConfig {
            workers: 1,
            storage,
            ..ServiceConfig::default()
        },
    )
    .expect("service starts");
    let query = paper_query();
    let steps = (0..COMMITS)
        .map(|i| {
            let stats = service.execute_mutation(mutation(i)).expect("commit");
            assert_eq!(stats.rows_affected, 1, "commit {i} touches one row");
            let emp = service.catalog().table("Emp").expect("Emp");
            let digest = fnv1a(format!("{:?}", emp.stats()).as_bytes());
            let cost = service
                .execute(query.clone())
                .expect("Figure-1 query")
                .estimated_cost
                .expect("an optimized query carries its estimate");
            (digest, cost.to_bits())
        })
        .collect();
    service.shutdown();
    steps
}

#[test]
fn every_commit_leaves_the_statistics_a_reanalysis_would() {
    let memory = run(StorageMode::InMemory);
    let dir = TempDir::new("stats-pins");
    let disk = run(StorageMode::Disk {
        dir: dir.path().to_path_buf(),
        pool_pages: 16,
    });
    if let Some(i) = (0..memory.len()).find(|&i| memory[i] != disk[i]) {
        panic!(
            "commit {i}: in-memory {:x?} vs disk {:x?}",
            memory[i], disk[i]
        );
    }
    let pinned: Vec<(u64, u64)> = STATS.iter().copied().zip(COST.iter().copied()).collect();
    if memory != pinned {
        let first = (0..memory.len())
            .find(|&i| pinned.get(i) != Some(&memory[i]))
            .unwrap_or(memory.len());
        let table = |col: fn(&(u64, u64)) -> u64| {
            memory
                .chunks(4)
                .map(|c| {
                    let row: Vec<String> =
                        c.iter().map(|s| format!("0x{:016x},", col(s))).collect();
                    format!("    {}", row.join(" "))
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        panic!(
            "commit {first} drifted from the pins; regenerated:\n\
             const STATS: [u64; {n}] = [\n{}\n];\n\
             const COST: [u64; {n}] = [\n{}\n];",
            table(|s| s.0),
            table(|s| s.1),
            n = memory.len(),
        );
    }
}

#[rustfmt::skip]
const STATS: [u64; 300] = [
    0x687a267a58fa95ec, 0xfa4a771095bd4178, 0x8a3c8d0013e931ee, 0xad504e44f773aeab,
    0xe1c22bced7233f01, 0xfa794301e057803d, 0x3667509083b25ff5, 0x0a1f931b62dd3056,
    0x2b413d60b64d44e1, 0x8d6a2eef107f3ebf, 0xb1bf9198bd9f00cf, 0xd3e6756717d94ef4,
    0x45d11590b7946cf1, 0xbb961918c6a2c0d2, 0x12a711980625219c, 0xf5103a1d93db1ab2,
    0x81773d78387eb24f, 0xe9f815623c395a27, 0x6817c99a89def7e6, 0x8cfd180cb06d379b,
    0x2a9e912192633421, 0x6567d597bb184905, 0x8cf52dfebf27b08e, 0x457e93885799e51e,
    0x20275596018eadc7, 0xf8a2ee73686976bf, 0xd3334fd2b57c79f1, 0xabdefaca861d89cf,
    0x5a9ed8c6b22351a5, 0x4c89750c2fd3209f, 0xc93ee05fd2f3f8cd, 0x0d2b9850089cf97e,
    0x00f4f72a8b44e471, 0x33508a1e08f98671, 0xae784fcb41820a0b, 0x94c5e4e723a07ea3,
    0xf603ad57e199e89d, 0x4c366dadc8b0e271, 0x1298a4406f6fd6e1, 0x9f6b341a2291bf52,
    0xe17c95454d130f92, 0xba55d2aa4559105d, 0x7ff31b0815d9d6a7, 0xf3d249923fe0b480,
    0xc500e4a21e301392, 0x505715621255ac76, 0xfa8b8105742e502b, 0xfe53d29469d20c0c,
    0xab1bdd5795a2b3b8, 0x0fe66d197379fa58, 0x62cb37f3f9f24401, 0xcb8b3fcfacbba949,
    0x82d401b74675973c, 0x24cc927848596678, 0x540a8e6a251acdfb, 0x6ff74f96f17ebb7a,
    0x708582ae9c5e17db, 0xcb7516039427ae05, 0xe0cf3f12742e09a1, 0x4172efc150b0aa9f,
    0x2160266e8564ab1c, 0xb0db3cedc09f38b9, 0x07e6e7f20ae3cf23, 0xb0a5d27390d1e8a0,
    0x1286ecc7c65a097c, 0xa7833b78f08e549c, 0x9aaea52ff50ebfe3, 0x3d4ba841fcc3f7c4,
    0x33144f56f660076e, 0xebfd0f293309ddba, 0x70215b044c0bf04f, 0x86f40155d6ce7f7e,
    0x954fe70c6eb8ca63, 0x94b134a687811f8f, 0x561237edb9e61513, 0xe967f2f027aefff0,
    0x1d7c9e00db8298b5, 0xddbb535561633bc8, 0x53b79a18bc96f768, 0x89da741d300ffae4,
    0x4cce25345bc55447, 0xcb176b2298042136, 0x618cf950c2658c32, 0x90c43f6fdda16cbb,
    0x18ac2de70178271b, 0x41243327f2abe9a9, 0x71f203c8020f5a53, 0xfc521c2da947ce19,
    0xe3ead85690ec4455, 0xcce64ca1da553da3, 0xf5177b2b3c60a12d, 0xf5177b2b3c60a12d,
    0xcce64ca1da553da3, 0x5cf1c8bbaf07b639, 0xe32fbe1c100237be, 0x30092eb8904e7f92,
    0x0b01842bc33190a0, 0xa3bcec718facf519, 0x88240c0a80a71ff4, 0x4ecea5763a62ab43,
    0x927302dc02e6643d, 0x73b6a2b509d54743, 0xb7bbad7e4dd81991, 0xfa1823b7b0fc6d0a,
    0xba8186c07d990f4e, 0x9198309e56053146, 0x6da8d764c79b21ba, 0xa663f959f236b76c,
    0x04eccce568f3e08b, 0xbe04bfbfa7d51bd9, 0x22884c4e1cf76cb2, 0xdcca3678e48b617e,
    0x6b27fe98aa9d3137, 0x35cf134782ee19ed, 0x1bfaeeb04cc07761, 0xcd1a68ec3affaf52,
    0xdee5b9d64e6275a4, 0x2491affd7a768c4f, 0x8144888fe4d3a09d, 0x524f21addba89f4e,
    0x9cda2458de762060, 0x9cda2458de762060, 0x524f21addba89f4e, 0xb3c63030e30ff3c7,
    0x09bb7a4a57377b36, 0x7c539b8a497bf335, 0x84b7a61c5e556dfd, 0x01fca0a2abd0392b,
    0xe4a1a9569149b97b, 0x6fc1a13bdfff0c7c, 0x461bce50edd5bdf1, 0x70ee44d86c16de65,
    0xaea9ca1f594cf4cb, 0xb3479cc93b1091c6, 0xfd63662520a23567, 0x34c1338c39993f26,
    0x702ce1970ee85472, 0x9da5d63e172f5bbb, 0x7d8e24295293d6da, 0x80b4d18ed7b6bd5f,
    0x2a6794e7fbefefd8, 0x692c7c74e33e4205, 0xf7063ff966a0e011, 0x68fcc0dc4af4c227,
    0xeea49e08da917324, 0xb9a78854121cbed1, 0x5508d0ce333a463d, 0x1823a675fca95cd4,
    0xf5d7be0d0883a456, 0xfe143a571531fbd7, 0xd111139bf273a762, 0x626373fb2157b92a,
    0xeae0e7aef5ae83e5, 0xf03c5a55ec4c0086, 0x9fcd23169ac4650d, 0x3b0cd5d3fa31fe3f,
    0x3467436e0b1d24a0, 0x7e6d0ba8825bda96, 0x3cecfced31aec953, 0xebda8c2771f9c30d,
    0x3700729fae1b81c3, 0x0c59b2745c4d1295, 0x4b5f751cb0f4f341, 0x743c2b3664c60fcb,
    0x7fe004cb39755ebe, 0x82ef653bed9ebcfc, 0xaa5f45f5ee14057e, 0xbac9444bbc91a364,
    0xdc4e6097840e47f9, 0x0107c6a2fea917f4, 0x12fc843b4baf62a7, 0xf9627bb5feb07eeb,
    0xe3c78460e33c150e, 0x9d91cb9dea52a5fe, 0x914255610d189701, 0x7c450a17373566c0,
    0xa995b0209393c0f9, 0x2670e4104d5a3638, 0xad62872d2b2c8dc6, 0x0c56c53d8068d36b,
    0x82b5eb3596dad1a9, 0x82b5eb3596dad1a9, 0x0c56c53d8068d36b, 0xe10ecb9d4fd7b678,
    0xd3d41b041a3bd3ec, 0xe641278a48895d7d, 0xeb23bde70fc1c38f, 0xad5dee57a95e40f8,
    0xfd3c126beaeafbb0, 0x42d001b3ec835f4f, 0x498506ce8b9388e3, 0x2103b7387a4de648,
    0x38117a8b56975f9b, 0xee1394b1d463ee17, 0x47410d44f4646e70, 0x358df715a7abc6db,
    0xab88098d1142c2f8, 0x020eb7990997a213, 0xd3cd8609ab8fad7f, 0x7b7c1a50f0fbb49d,
    0xa687607773ca1ab1, 0x96cbe50498852186, 0x9cce8f47f22d58fd, 0xa82d7bbfad2f5bb8,
    0x852767f18dee5aa0, 0xabbae6354684f9e1, 0x9e55ce7622d7c0d6, 0x5288121029ef796c,
    0xba7a71a0bdf80321, 0x405f46c4729438ed, 0x7c8b905e60477007, 0x4c496f2546f82540,
    0xacacb174a5df89ef, 0xa08e7b27d5faaeb4, 0x20f06ea46ad047a2, 0xa3d4833eb2009ee7,
    0x47a6b9afb0e869ed, 0xb8a01f10f4b13780, 0xc2cce083596a8057, 0x1824a400354dc7be,
    0xbe34a12911bd22e4, 0xb253eb6bb08b366b, 0x2e7db05aeea75fa9, 0x8eed57858b94318c,
    0xd5e7f6d963e7bfc5, 0xd742fc13b7e3c7a7, 0xf6712baea0a9dee4, 0xabe66b32aab688a6,
    0xa8e3ce122d136e18, 0x463a4d8605e92fbc, 0xb60b9f266ab0b7ac, 0x7e5c7328dfc351ef,
    0x3164966434b4f745, 0x3d26366c7ff997d6, 0x127b20e74247d178, 0x127b20e74247d178,
    0x3d26366c7ff997d6, 0x9009fe6b119ee151, 0x72ccf2826dfa56ba, 0x4fd94a84ba56f0f9,
    0xe90a335bf09ed585, 0x21770a4d554aeeae, 0xaed6f0de7523937e, 0x3b6c75b4227cb741,
    0x97990abdb13950f2, 0x82a10e9a6371607b, 0xa9c395b025a0a659, 0xb17119c8884b4456,
    0x4daeb1876185099c, 0x6beed7f8ccb36a26, 0x1a5890d309c725f2, 0xe095d174e7e68381,
    0x988a22ab9270a42e, 0x2766e974d2127a0d, 0x5408f22e5b3b1ace, 0x7091368f2d01544f,
    0x042f96ddcde8b741, 0x3915629e44bb4d51, 0xd73e445ade95909d, 0x54e6f73581d309a0,
    0xca47397e69e74850, 0xe75955985cdcdaf8, 0xe63623e2644bd943, 0xc3f0d96bc7b54860,
    0x80b390578708d6fb, 0xaddd98a76ae6a897, 0x37f38e74d1349450, 0xceae127f421e7581,
    0xceae127f421e7581, 0x37f38e74d1349450, 0x0f29e11adc74250e, 0x6329c9b51b750649,
    0x0cf5c358f02563e7, 0xdcd71e790e4bab2f, 0x55104c4f216c6484, 0xade2ba2081a91db2,
    0xf7c1aee8cd5006d4, 0x5c7a197cfa1fece7, 0x2c58d25d97e0c59f, 0x432b73ee8f3eb167,
    0x194e4923df44ead0, 0xcd04a014ebda3c71, 0x1fa93f814d1abd69, 0x597e3d3e3393711f,
    0xf74af6eece9c2f06, 0xaca447792ee2d595, 0x586ffa577b5c2609, 0x7b43bca0f6853851,
    0x088e069c8bb530f4, 0xcd896cc705e61879, 0x6f35296c16423696, 0x937af5ce3c13ac03,
    0xb0ef9ba32582a24d, 0xce1c6b4f6058b44e, 0x4b239fa70e1e59d1, 0x6fb000f1c8193e66,
    0x7180e51f40a5dc69, 0xf627428e795ddb9a, 0x4666331cbb943515, 0x9f10322cc8ebcf64,
];
#[rustfmt::skip]
const COST: [u64; 300] = [
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
    0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa,
    0x406ca053ebc234aa, 0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa,
    0x406c9fadd33f5974, 0x406ca053ebc234aa, 0x406ca053ebc234aa, 0x406c9fadd33f5974,
];
