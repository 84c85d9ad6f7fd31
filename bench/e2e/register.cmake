# Adds the end-to-end benchmark driver to a geonas configure:
#   cmake --preset release -DCMAKE_PROJECT_geonas_INCLUDE=<abs path of this file>
# CMake includes this file at the end of the root project() call. The
# deferred include runs after the root CMakeLists.txt has set its options
# and defined every library target (CMake allows no add_subdirectory in a
# deferred call).
cmake_language(DEFER CALL include "${CMAKE_SOURCE_DIR}/bench/e2e/CMakeLists.txt")
