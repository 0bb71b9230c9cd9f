"""Deterministic cooperative-mixup augmentation for multi-agent LiDAR clouds."""

from .gate import (GateChoice, GateResponses, TABLE_DISTRIBUTIONS, apply_gate,
                   comprehensive_distribution, comprehensive_from_tables,
                   estimate_source_distribution, gate_responses, sample_gate,
                   sample_gate_step)
from .io import (CLOUD_MAGIC, MANIFEST_VERSION, load_cloud, load_manifest, load_pmf,
                 save_cloud, save_manifest, save_range_image_pgm)
from .kernels import NUMBA_ENABLED, ray_cast, scatter_nearest
from .mixup import (SplitLine, bev_center, cut_and_combine, make_mixup_agent,
                    nearest_pair, split_line)
from .model import (AGENT_TYPES, Agent, AgentType, CmagConfig, CooperativeGroup, CountDistribution,
                    PointCloud, RigidTransform, RngStream, transform_cloud, validate_group)
from .pipeline import cfc_l1, cfc_score, cmag, early_fuse, fuse_grids, occupancy
from .rangeview import (NO_RETURN, RangeImage, density_augment, project,
                        resample_beams, unproject)
from .setupaug import SetupAugParams, apply_setup_aug, sample_setup_params
from .sim import Scene, make_group, make_scene, simulate_lidar

__version__ = "0.1.0"
