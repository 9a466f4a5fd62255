//! The shell's command language.

use jsym_sysmon::{JsConstraints, SysParam};
use std::fmt;

/// A parsed shell command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `help` — list commands.
    Help,
    /// `nodes` — one line per machine: name, model, load, hosted objects.
    Nodes,
    /// `snapshot <node> [param]` — system parameters of a machine.
    Snapshot {
        /// Machine name.
        node: String,
        /// Optional single parameter to show.
        param: Option<SysParam>,
    },
    /// `cluster <n> [constraint...]` — request a cluster.
    Cluster {
        /// Number of nodes.
        n: usize,
        /// Admission constraints (`idle>=50` style).
        constraints: JsConstraints,
    },
    /// `arch` — list live architectures and their managers.
    Arch,
    /// `create <class> [node]` — create an object, optionally on a machine.
    Create {
        /// Class name.
        class: String,
        /// Optional machine name.
        node: Option<String>,
    },
    /// `invoke <obj> <method> [i64 args...]` — synchronous invocation.
    Invoke {
        /// Object label from a previous `create`.
        obj: String,
        /// Method name.
        method: String,
        /// Integer arguments.
        args: Vec<i64>,
    },
    /// `oinvoke <obj> <method> [i64 args...]` — one-sided invocation.
    OInvoke {
        /// Object label.
        obj: String,
        /// Method name.
        method: String,
        /// Integer arguments.
        args: Vec<i64>,
    },
    /// `migrate <obj> <node>` — explicit migration.
    Migrate {
        /// Object label.
        obj: String,
        /// Destination machine name.
        node: String,
    },
    /// `codebase <artifact> <bytes> <node>...` — ship an artifact.
    Codebase {
        /// Artifact name.
        artifact: String,
        /// Declared size in bytes.
        bytes: usize,
        /// Machine names to load it onto.
        nodes: Vec<String>,
    },
    /// `store <obj> [key]` — persist an object.
    Store {
        /// Object label.
        obj: String,
        /// Optional persistence key.
        key: Option<String>,
    },
    /// `load <key> <label> [node]` — resurrect a stored object as `label`.
    Load {
        /// Persistence key.
        key: String,
        /// New object label.
        label: String,
        /// Optional machine name.
        node: Option<String>,
    },
    /// `kill <node>` — fail a machine.
    Kill {
        /// Machine name.
        node: String,
    },
    /// `addnode <name> <mflops>` — grow the deployment (paper §5: "The set
    /// of nodes can be changed by adding or removing nodes dynamically").
    AddNode {
        /// New machine's name.
        name: String,
        /// Its peak rate in Mflop/s.
        mflops: f64,
    },
    /// `rmnode <name>` — gracefully remove a drained machine.
    RmNode {
        /// Machine name.
        name: String,
    },
    /// `automigrate on|off` — toggle automatic migration.
    Automigrate {
        /// Desired state.
        enabled: bool,
    },
    /// `period <secs>` — change the NAS monitoring period at runtime.
    Period {
        /// New period in virtual seconds.
        secs: f64,
    },
    /// `timeout <secs>` — change the NAS failure timeout at runtime.
    Timeout {
        /// New timeout in virtual seconds.
        secs: f64,
    },
    /// `params [--cached]` — per-machine key system parameters; with
    /// `--cached`, the aggregation-plane view instead (DESIGN.md §9):
    /// configuration, sample-cache hit/miss/invalidation counters, heap and
    /// dirty-set sizes.
    Params {
        /// Show the aggregation-plane statistics instead of live samples.
        cached: bool,
    },
    /// `stats` — network and per-node runtime counters.
    Stats,
    /// `directory` — replicated-directory replica status (DESIGN.md §10):
    /// leader, term, commit/applied lag and state sizes per replica.
    Directory,
    /// `batch` — RMI coalescing stage: configuration, flush counters by
    /// reason, mean batch size and modeled wire capacity freed.
    Batch,
    /// `affinity [on|off]` — affinity-plane traffic/migration statistics
    /// (DESIGN.md §14), or toggle affinity-guided re-placement at runtime.
    Affinity {
        /// `Some(enabled)` toggles re-placement; `None` shows statistics.
        set: Option<bool>,
    },
    /// `executor` — the work-stealing executor's size and live
    /// worker/queue/blocked counters.
    Executor,
    /// `metrics [json]` — observability registry: counters, gauges,
    /// histograms and per-endpoint traffic; `json` emits the machine-
    /// readable export instead.
    Metrics {
        /// Emit the JSON export instead of the summary table.
        json: bool,
    },
    /// `trace [name-prefix]` — recorded spans as an indented tree with
    /// virtual start/end times, optionally restricted to subtrees whose
    /// root name starts with the prefix (e.g. `trace migrate`).
    Trace {
        /// Optional span-name prefix filter.
        filter: Option<String>,
    },
    /// `log [n]` — the last `n` (default 20) runtime events.
    Log {
        /// How many events to show.
        n: usize,
    },
    /// `objects` — the session's object table.
    Objects,
    /// `quit` / `exit`.
    Quit,
}

/// Why a command line failed to parse.
#[derive(Clone, Debug, PartialEq)]
pub enum ParseError {
    /// The line was empty.
    Empty,
    /// Unknown command word.
    UnknownCommand(String),
    /// Wrong arguments; the string names the expected usage.
    Usage(&'static str),
    /// A constraint clause could not be parsed.
    BadConstraint(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Empty => write!(f, "empty command"),
            ParseError::UnknownCommand(c) => write!(f, "unknown command {c:?}; try `help`"),
            ParseError::Usage(u) => write!(f, "usage: {u}"),
            ParseError::BadConstraint(c) => write!(f, "cannot parse constraint {c:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parameter names accepted in constraint clauses.
fn param_by_name(name: &str) -> Option<SysParam> {
    let lower = name.to_ascii_lowercase();
    let mapping: &[(&str, SysParam)] = &[
        ("idle", SysParam::IdlePct),
        ("idlepct", SysParam::IdlePct),
        ("availmem", SysParam::AvailMem),
        ("mem", SysParam::AvailMem),
        ("totalmem", SysParam::TotalMem),
        ("cpuload", SysParam::CpuLoad1),
        ("load", SysParam::CpuLoad1),
        ("syspct", SysParam::CpuSysPct),
        ("peak", SysParam::PeakMflops),
        ("peakmflops", SysParam::PeakMflops),
        ("mhz", SysParam::CpuMhz),
        ("swapratio", SysParam::SwapSpaceRatio),
        ("name", SysParam::NodeName),
        ("nodename", SysParam::NodeName),
        ("procs", SysParam::NumProcesses),
        ("users", SysParam::LoggedInUsers),
    ];
    mapping.iter().find(|(n, _)| *n == lower).map(|(_, p)| *p)
}

/// Parses `idle>=50`, `name!=milena`, `peak>10` clauses.
fn parse_constraint(clause: &str, constr: &mut JsConstraints) -> Result<(), ParseError> {
    for op in ["<=", ">=", "!=", "==", "<", ">", "="] {
        if let Some((lhs, rhs)) = clause.split_once(op) {
            let param = param_by_name(lhs.trim())
                .ok_or_else(|| ParseError::BadConstraint(clause.to_owned()))?;
            let rhs = rhs.trim();
            let added = if param.is_string() {
                constr.try_set(param, op, rhs).is_some()
            } else {
                let num: f64 = rhs
                    .parse()
                    .map_err(|_| ParseError::BadConstraint(clause.to_owned()))?;
                constr.try_set(param, op, num).is_some()
            };
            return if added {
                Ok(())
            } else {
                Err(ParseError::BadConstraint(clause.to_owned()))
            };
        }
    }
    Err(ParseError::BadConstraint(clause.to_owned()))
}

impl Command {
    /// Parses one command line.
    pub fn parse(line: &str) -> Result<Command, ParseError> {
        let mut words = line.split_whitespace();
        let head = words.next().ok_or(ParseError::Empty)?;
        let rest: Vec<&str> = words.collect();
        match head.to_ascii_lowercase().as_str() {
            "help" | "?" => Ok(Command::Help),
            "nodes" | "ls" => Ok(Command::Nodes),
            "snapshot" | "snap" => {
                let node = rest
                    .first()
                    .ok_or(ParseError::Usage("snapshot <node> [param]"))?;
                let param = match rest.get(1) {
                    Some(p) => Some(
                        param_by_name(p)
                            .ok_or_else(|| ParseError::BadConstraint((*p).to_owned()))?,
                    ),
                    None => None,
                };
                Ok(Command::Snapshot {
                    node: (*node).to_owned(),
                    param,
                })
            }
            "cluster" => {
                let n: usize = rest
                    .first()
                    .and_then(|s| s.parse().ok())
                    .ok_or(ParseError::Usage("cluster <n> [param<op>value ...]"))?;
                let mut constraints = JsConstraints::new();
                for clause in &rest[1..] {
                    parse_constraint(clause, &mut constraints)?;
                }
                Ok(Command::Cluster { n, constraints })
            }
            "arch" => Ok(Command::Arch),
            "create" => {
                let class = rest
                    .first()
                    .ok_or(ParseError::Usage("create <class> [node]"))?;
                Ok(Command::Create {
                    class: (*class).to_owned(),
                    node: rest.get(1).map(|s| (*s).to_owned()),
                })
            }
            "invoke" | "oinvoke" => {
                let obj = rest
                    .first()
                    .ok_or(ParseError::Usage("invoke <obj> <method> [i64...]"))?;
                let method = rest
                    .get(1)
                    .ok_or(ParseError::Usage("invoke <obj> <method> [i64...]"))?;
                let args: Result<Vec<i64>, _> = rest[2..].iter().map(|s| s.parse()).collect();
                let args = args.map_err(|_| ParseError::Usage("arguments must be integers"))?;
                if head.eq_ignore_ascii_case("invoke") {
                    Ok(Command::Invoke {
                        obj: (*obj).to_owned(),
                        method: (*method).to_owned(),
                        args,
                    })
                } else {
                    Ok(Command::OInvoke {
                        obj: (*obj).to_owned(),
                        method: (*method).to_owned(),
                        args,
                    })
                }
            }
            "migrate" => match rest.as_slice() {
                [obj, node] => Ok(Command::Migrate {
                    obj: (*obj).to_owned(),
                    node: (*node).to_owned(),
                }),
                _ => Err(ParseError::Usage("migrate <obj> <node>")),
            },
            "codebase" => {
                if rest.len() < 3 {
                    return Err(ParseError::Usage("codebase <artifact> <bytes> <node>..."));
                }
                let bytes: usize = rest[1]
                    .parse()
                    .map_err(|_| ParseError::Usage("codebase <artifact> <bytes> <node>..."))?;
                Ok(Command::Codebase {
                    artifact: rest[0].to_owned(),
                    bytes,
                    nodes: rest[2..].iter().map(|s| (*s).to_owned()).collect(),
                })
            }
            "store" => {
                let obj = rest.first().ok_or(ParseError::Usage("store <obj> [key]"))?;
                Ok(Command::Store {
                    obj: (*obj).to_owned(),
                    key: rest.get(1).map(|s| (*s).to_owned()),
                })
            }
            "load" => match rest.as_slice() {
                [key, label] => Ok(Command::Load {
                    key: (*key).to_owned(),
                    label: (*label).to_owned(),
                    node: None,
                }),
                [key, label, node] => Ok(Command::Load {
                    key: (*key).to_owned(),
                    label: (*label).to_owned(),
                    node: Some((*node).to_owned()),
                }),
                _ => Err(ParseError::Usage("load <key> <label> [node]")),
            },
            "kill" => match rest.as_slice() {
                [node] => Ok(Command::Kill {
                    node: (*node).to_owned(),
                }),
                _ => Err(ParseError::Usage("kill <node>")),
            },
            "rmnode" => match rest.as_slice() {
                [name] => Ok(Command::RmNode {
                    name: (*name).to_owned(),
                }),
                _ => Err(ParseError::Usage("rmnode <name>")),
            },
            "addnode" => match rest.as_slice() {
                [name, mflops] => {
                    let mflops: f64 = mflops
                        .parse()
                        .map_err(|_| ParseError::Usage("addnode <name> <mflops>"))?;
                    Ok(Command::AddNode {
                        name: (*name).to_owned(),
                        mflops,
                    })
                }
                _ => Err(ParseError::Usage("addnode <name> <mflops>")),
            },
            "period" | "timeout" => {
                let secs: f64 = rest
                    .first()
                    .and_then(|s| s.parse().ok())
                    .filter(|s| *s > 0.0)
                    .ok_or(ParseError::Usage("period|timeout <positive secs>"))?;
                if head.eq_ignore_ascii_case("period") {
                    Ok(Command::Period { secs })
                } else {
                    Ok(Command::Timeout { secs })
                }
            }
            "automigrate" => match rest.as_slice() {
                ["on"] => Ok(Command::Automigrate { enabled: true }),
                ["off"] => Ok(Command::Automigrate { enabled: false }),
                _ => Err(ParseError::Usage("automigrate on|off")),
            },
            "params" => match rest.as_slice() {
                [] => Ok(Command::Params { cached: false }),
                ["--cached"] => Ok(Command::Params { cached: true }),
                _ => Err(ParseError::Usage("params [--cached]")),
            },
            "stats" => Ok(Command::Stats),
            "directory" | "dir" => Ok(Command::Directory),
            "batch" => Ok(Command::Batch),
            "affinity" => match rest.as_slice() {
                [] => Ok(Command::Affinity { set: None }),
                ["on"] => Ok(Command::Affinity { set: Some(true) }),
                ["off"] => Ok(Command::Affinity { set: Some(false) }),
                _ => Err(ParseError::Usage("affinity [on|off]")),
            },
            "executor" | "exec" => Ok(Command::Executor),
            "metrics" => match rest.as_slice() {
                [] => Ok(Command::Metrics { json: false }),
                ["json"] => Ok(Command::Metrics { json: true }),
                _ => Err(ParseError::Usage("metrics [json]")),
            },
            "trace" => match rest.as_slice() {
                [] => Ok(Command::Trace { filter: None }),
                [prefix] => Ok(Command::Trace {
                    filter: Some((*prefix).to_owned()),
                }),
                _ => Err(ParseError::Usage("trace [name-prefix]")),
            },
            "log" => {
                let n = rest
                    .first()
                    .map(|s| s.parse().map_err(|_| ParseError::Usage("log [n]")))
                    .transpose()?
                    .unwrap_or(20);
                Ok(Command::Log { n })
            }
            "objects" | "objs" => Ok(Command::Objects),
            "quit" | "exit" | "q" => Ok(Command::Quit),
            other => Err(ParseError::UnknownCommand(other.to_owned())),
        }
    }
}

/// The help text shown by `help`.
pub(crate) const HELP: &str = "\
commands:
  nodes                                  list machines
  snapshot <node> [param]                system parameters of a machine
  cluster <n> [idle>=50 mem>=64 ...]     request a cluster under constraints
  arch                                   live architectures and managers
  create <class> [node]                  create an object (label printed)
  invoke <obj> <method> [i64...]         synchronous method invocation
  oinvoke <obj> <method> [i64...]        one-sided method invocation
  migrate <obj> <node>                   explicit object migration
  codebase <artifact> <bytes> <node>...  selective classloading
  store <obj> [key] / load <key> <label> [node]   persistence
  kill <node>                            fail a machine
  addnode <name> <mflops> / rmnode <name>  grow / shrink the deployment
  automigrate on|off                     toggle automatic migration
  params [--cached]                      key parameters per machine / plane stats
  period <secs> / timeout <secs>         tune monitoring / failure detection
  stats / objects / log [n]              counters / object table / events
  directory                              replicated-directory leader, term, replica lag
  batch                                  RMI coalescing-stage config and counters
  affinity [on|off]                      affinity-plane stats / toggle re-placement
  executor                               executor size and work-stealing pool counters
  metrics [json]                         observability metrics (summary or JSON)
  trace [name-prefix]                    recorded spans as a tree (e.g. `trace migrate`)
  quit";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_commands() {
        assert_eq!(Command::parse("help").unwrap(), Command::Help);
        assert_eq!(Command::parse("nodes").unwrap(), Command::Nodes);
        assert_eq!(Command::parse("  LS  ").unwrap(), Command::Nodes);
        assert_eq!(Command::parse("quit").unwrap(), Command::Quit);
        assert_eq!(Command::parse("stats").unwrap(), Command::Stats);
        assert_eq!(Command::parse("directory").unwrap(), Command::Directory);
        assert_eq!(Command::parse("dir").unwrap(), Command::Directory);
        assert_eq!(Command::parse("batch").unwrap(), Command::Batch);
        assert_eq!(
            Command::parse("affinity").unwrap(),
            Command::Affinity { set: None }
        );
        assert_eq!(
            Command::parse("affinity on").unwrap(),
            Command::Affinity { set: Some(true) }
        );
        assert_eq!(
            Command::parse("affinity off").unwrap(),
            Command::Affinity { set: Some(false) }
        );
        assert!(matches!(
            Command::parse("affinity maybe"),
            Err(ParseError::Usage(_))
        ));
        assert_eq!(Command::parse("executor").unwrap(), Command::Executor);
        assert_eq!(Command::parse("exec").unwrap(), Command::Executor);
    }

    #[test]
    fn parses_observability_commands() {
        assert_eq!(
            Command::parse("metrics").unwrap(),
            Command::Metrics { json: false }
        );
        assert_eq!(
            Command::parse("metrics json").unwrap(),
            Command::Metrics { json: true }
        );
        assert!(matches!(
            Command::parse("metrics csv"),
            Err(ParseError::Usage(_))
        ));
        assert_eq!(
            Command::parse("trace").unwrap(),
            Command::Trace { filter: None }
        );
        assert_eq!(
            Command::parse("trace migrate").unwrap(),
            Command::Trace {
                filter: Some("migrate".into())
            }
        );
        assert!(matches!(
            Command::parse("trace a b"),
            Err(ParseError::Usage(_))
        ));
    }

    #[test]
    fn parses_params_command() {
        assert_eq!(
            Command::parse("params").unwrap(),
            Command::Params { cached: false }
        );
        assert_eq!(
            Command::parse("params --cached").unwrap(),
            Command::Params { cached: true }
        );
        assert!(matches!(
            Command::parse("params --cached extra"),
            Err(ParseError::Usage(_))
        ));
        assert!(matches!(
            Command::parse("params live"),
            Err(ParseError::Usage(_))
        ));
    }

    #[test]
    fn parses_cluster_with_constraints() {
        let cmd = Command::parse("cluster 4 idle>=50 name!=milena peak>10").unwrap();
        match cmd {
            Command::Cluster { n, constraints } => {
                assert_eq!(n, 4);
                assert_eq!(constraints.len(), 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_invocations() {
        assert_eq!(
            Command::parse("invoke c1 add 5 -3").unwrap(),
            Command::Invoke {
                obj: "c1".into(),
                method: "add".into(),
                args: vec![5, -3]
            }
        );
        assert_eq!(
            Command::parse("oinvoke c1 set 9").unwrap(),
            Command::OInvoke {
                obj: "c1".into(),
                method: "set".into(),
                args: vec![9]
            }
        );
    }

    #[test]
    fn parses_object_lifecycle_commands() {
        assert_eq!(
            Command::parse("create Counter rachel").unwrap(),
            Command::Create {
                class: "Counter".into(),
                node: Some("rachel".into())
            }
        );
        assert_eq!(
            Command::parse("migrate c1 milena").unwrap(),
            Command::Migrate {
                obj: "c1".into(),
                node: "milena".into()
            }
        );
        assert_eq!(
            Command::parse("store c1 snapshot-1").unwrap(),
            Command::Store {
                obj: "c1".into(),
                key: Some("snapshot-1".into())
            }
        );
        assert_eq!(
            Command::parse("load snapshot-1 c2 rachel").unwrap(),
            Command::Load {
                key: "snapshot-1".into(),
                label: "c2".into(),
                node: Some("rachel".into())
            }
        );
        assert_eq!(
            Command::parse("codebase blob.jar 1000 rachel milena").unwrap(),
            Command::Codebase {
                artifact: "blob.jar".into(),
                bytes: 1000,
                nodes: vec!["rachel".into(), "milena".into()]
            }
        );
    }

    #[test]
    fn rejects_bad_lines() {
        assert_eq!(Command::parse("   "), Err(ParseError::Empty));
        assert!(matches!(
            Command::parse("frobnicate"),
            Err(ParseError::UnknownCommand(_))
        ));
        assert!(matches!(
            Command::parse("cluster"),
            Err(ParseError::Usage(_))
        ));
        assert!(matches!(
            Command::parse("cluster 3 bogus~5"),
            Err(ParseError::BadConstraint(_))
        ));
        assert!(matches!(
            Command::parse("invoke c1 add NaN"),
            Err(ParseError::Usage(_))
        ));
        assert!(matches!(
            Command::parse("automigrate maybe"),
            Err(ParseError::Usage(_))
        ));
    }

    #[test]
    fn constraint_parser_handles_strings_and_numbers() {
        let mut c = JsConstraints::new();
        parse_constraint("name!=milena", &mut c).unwrap();
        parse_constraint("idle>=50", &mut c).unwrap();
        parse_constraint("swapratio<=0.3", &mut c).unwrap();
        assert_eq!(c.len(), 3);
        let mut c2 = JsConstraints::new();
        assert!(parse_constraint("idle>=fifty", &mut c2).is_err());
        assert!(parse_constraint("nonsense", &mut c2).is_err());
    }
}
