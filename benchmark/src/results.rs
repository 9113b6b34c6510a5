//! A result set: what one `run` leaves in its output directory, and what
//! `compare` reads back.

use std::collections::BTreeMap;
use std::path::Path;

use sfs_trace::json::obj;
use sfs_trace::Json;

use crate::host::HostStamp;
use crate::runner::WorkloadResult;
use crate::workload::{Scale, WorkloadId};

/// The file a set is stored in, inside its directory.
pub const SET_FILE: &str = "results.json";

/// One full set of runs: every workload once, plus the component drives.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Where and on what the set was measured.
    pub host: HostStamp,
    /// The input seed of every workload.
    pub seed: u64,
    /// Input sizes.
    pub scale: Scale,
    /// One result per workload, in run order.
    pub workloads: Vec<WorkloadResult>,
    /// Component-drive metrics by name.
    pub drives: BTreeMap<String, f64>,
}

impl ResultSet {
    /// The result of `id`, if the set has it.
    pub fn workload(&self, id: WorkloadId) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.workload == id)
    }

    /// As `results.json` carries it. The stamp repeats the seed, the
    /// repetition counts and each workload's `inputs_hash` so the file
    /// stands alone.
    pub fn to_json(&self) -> Json {
        let Json::Obj(mut host) = self.host.to_json() else {
            unreachable!("HostStamp::to_json builds an object")
        };
        host.push(("seed".into(), Json::Int(i128::from(self.seed))));
        host.push((
            "reps".into(),
            Json::Obj(
                self.workloads
                    .iter()
                    .map(|w| {
                        (
                            w.workload.name().to_string(),
                            Json::Int(w.wall_s.0.len() as i128),
                        )
                    })
                    .collect(),
            ),
        ));
        host.push((
            "inputs_hash".into(),
            Json::Obj(
                self.workloads
                    .iter()
                    .map(|w| {
                        (
                            w.workload.name().to_string(),
                            Json::Str(w.inputs_hash.clone()),
                        )
                    })
                    .collect(),
            ),
        ));
        obj(vec![
            ("host", Json::Obj(host)),
            ("seed", Json::Int(i128::from(self.seed))),
            ("scale", Json::Str(self.scale.name().into())),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
            (
                "drives",
                Json::Obj(
                    self.drives
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::Num(v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Reads back [`ResultSet::to_json`].
    pub fn from_json(v: &Json) -> Option<ResultSet> {
        let drives = match v.get("drives")? {
            Json::Obj(members) => members
                .iter()
                .filter_map(|(k, x)| Some((k.clone(), x.as_f64()?)))
                .collect(),
            _ => return None,
        };
        Some(ResultSet {
            host: HostStamp::from_json(v.get("host")?)?,
            seed: v.get("seed")?.as_u64()?,
            scale: Scale::parse(v.get("scale")?.as_str()?)?,
            workloads: v
                .get("workloads")?
                .as_arr()?
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Option<Vec<_>>>()?,
            drives,
        })
    }

    /// Writes `results.json` into `dir` (created if missing).
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(SET_FILE), self.to_json().to_string())
    }

    /// Loads the set stored in `dir`.
    pub fn load(dir: &Path) -> Result<ResultSet, String> {
        let path = dir.join(SET_FILE);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        ResultSet::from_json(&json)
            .ok_or_else(|| format!("{}: not a benchmark result set", path.display()))
    }
}
