"""Deployment and trajectory construction."""

import math

import numpy as np
import pytest

from nrtransport import (
    ConfigurationError,
    build_linear_deployment,
    build_rail_deployment,
    linear_trajectory,
    snake_trajectory,
)


def test_highway_deployment_site_count_and_span():
    dep = build_linear_deployment(200, 40, 10, 10000)
    assert len(dep.sites) == 51
    coords = dep.along_road_coordinates()
    assert coords[0] == 0.0
    assert coords[-1] == 10000.0
    assert np.max(np.abs(np.diff(coords) - 200.0)) < 1e-9
    assert all(s.position[1] == 40.0 and s.position[2] == 10.0 for s in dep.sites)


def test_macro_deployment_two_sites():
    dep = build_linear_deployment(1732, 0, 35, 1732)
    assert len(dep.sites) == 2


def test_span_shorter_than_isd_rejected():
    with pytest.raises(ConfigurationError):
        build_linear_deployment(100, 0, 10, 50)
    with pytest.raises(ConfigurationError):
        build_linear_deployment(0, 0, 10, 50)


def test_rail_deployment_four_sites_with_downtilt():
    dep = build_rail_deployment(700, 10)
    xs = [s.position[0] for s in dep.sites]
    assert xs == [0.0, 700.0, 1400.0, 2100.0]
    assert all(s.position[2] == 35.0 for s in dep.sites)
    assert all(abs(s.downtilt - math.radians(10.0)) < 1e-15 for s in dep.sites)
    with pytest.raises(ConfigurationError):
        build_rail_deployment(0, 10)


def test_reflection_symmetry_of_site_coordinates():
    dep = build_linear_deployment(200, 40, 10, 1000)
    coords = dep.along_road_coordinates()
    # Reversing the road axis reflects the along-road coordinates.
    reflected = sorted(-c for c in coords)
    assert np.allclose(np.diff(reflected), np.diff(coords))


def test_highway_speed_conversion():
    traj = snake_trajectory(130, 10000, 3.5, 500, 0.01)
    assert abs(traj.velocity[0, 0] - 130 / 3.6) < 1e-12


def test_snake_peak_lateral_acceleration():
    traj = snake_trajectory(130, 10000, 3.5, 500, 0.01)
    v = 130 / 3.6
    expected = (2 * math.pi * v / 500) ** 2 * 3.5
    assert abs(np.max(np.abs(traj.acceleration[:, 1])) - expected) / expected < 1e-3
    assert abs(expected - 0.721) < 5e-3


def test_zero_amplitude_is_straight_line():
    traj = snake_trajectory(130, 1000, 0.0, 500, 0.01)
    assert np.all(traj.acceleration == 0.0)
    assert np.ptp(traj.position[:, 1]) == 0.0


def test_velocity_matches_analytic_derivative():
    traj = snake_trajectory(90, 2000, 3.5, 500, 0.01)
    v = 90 / 3.6
    k = 2 * math.pi / 500
    x = traj.position[:, 0]
    assert np.max(np.abs(traj.velocity[:, 1] - 3.5 * k * v * np.cos(k * x))) < 1e-9
    assert np.max(np.abs(traj.acceleration[:, 1] + 3.5 * (k * v) ** 2 * np.sin(k * x))) < 1e-9


def test_rail_trajectory_speed_and_midpoint_time():
    traj = linear_trajectory(500, 2100, 5e-4)
    assert abs(traj.velocity[0, 0] - 138.8888888888889) < 1e-9
    assert np.all(traj.acceleration == 0.0)
    # Midpoint between the middle site pair of a 700 m ISD rail deployment.
    i = int(np.argmin(np.abs(traj.position[:, 0] - 1050.0)))
    assert abs(traj.t[i] - 1050.0 / (500 / 3.6)) < 1e-2


def test_trajectory_requires_uniform_timestamps():
    from nrtransport.scenario import Trajectory

    t = np.array([0.0, 0.01, 0.03])
    z = np.zeros((3, 3))
    with pytest.raises(ConfigurationError):
        Trajectory(t=t, position=z, velocity=z, acceleration=z, sample_period=0.01)
